package adc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A make invocation as the docs write one: after a backtick, or opening
	// a line of a code block or a workflow `run:` step. Prose ("and make
	// every probe …") is not matched.
	makeInvocation = regexp.MustCompile("(?m)(?:`|^\\s*(?:run: |\\$ )?)make ([a-z][a-z0-9-]*)")
	// The 1-core recordings and their recorder, deleted in issue 24.
	retiredName = regexp.MustCompile(`benchjson|BENCH_[A-Za-z_*]`)
	// EXPERIMENTS.md sections that record one PR's runs say so in their
	// heading; they are history and may name what existed then.
	datedHeading = regexp.MustCompile(`\((?:PR|issue) \d+`)
)

// livingText returns the part of a file that describes the repository as it
// is: everything, except EXPERIMENTS.md's dated "## … (PR n …)" sections.
func livingText(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "EXPERIMENTS.md" {
		return string(raw)
	}
	var b strings.Builder
	dated := false
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "## ") {
			dated = datedHeading.MatchString(line)
		}
		if !dated {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestDocsNameRealThings is the first slice of ROADMAP item 9's doc test:
// the documents that tell a reader what to run must name things that exist.
func TestDocsNameRealThings(t *testing.T) {
	t.Run("make targets", docsNameDeclaredMakeTargets)
	t.Run("retired recordings", docsDoNotNameRetiredRecordings)
}

func docsNameDeclaredMakeTargets(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, line := range strings.Split(string(makefile), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, target := range strings.Fields(rest) {
				declared[target] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("Makefile declares no .PHONY targets")
	}
	for _, path := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md",
		".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
	} {
		found := 0
		for _, m := range makeInvocation.FindAllStringSubmatch(livingText(t, path), -1) {
			found++
			if !declared[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile's .PHONY list does not declare", path, m[1])
			}
		}
		if found == 0 {
			t.Errorf("%s: no make invocation found; the extraction pattern no longer fits the file", path)
		}
	}
}

// docsDoNotNameRetiredRecordings walks every text file of the checkout.
// Exempt: CHANGES.md, ROADMAP.md and ISSUE.md (the record and the plan of
// what was removed), EXPERIMENTS.md's dated sections, bench/ (frozen by
// BENCHMARK.json's `paths`; its README already calls the files superseded)
// and this file.
func docsDoNotNameRetiredRecordings(t *testing.T) {
	exemptFile := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "ISSUE.md": true, "docs_test.go": true}
	skipDir := map[string]bool{".git": true, ".bench_build": true, "bench": true}
	textExt := map[string]bool{".md": true, ".go": true, ".yml": true, ".sh": true, ".txt": true, ".json": true}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir[path] {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if exemptFile[path] || !(textExt[filepath.Ext(name)] || name == "Makefile" || name == ".gitignore") {
			return nil
		}
		for _, line := range strings.Split(livingText(t, path), "\n") {
			if retiredName.MatchString(line) {
				t.Errorf("%s names a retired recording or its recorder: %s", path, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
