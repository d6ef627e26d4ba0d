package clilog

import (
	"bytes"
	"strings"
	"testing"
)

func TestLevels(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo)
	l.Infof("notice %d", 1)
	l.logf(LevelDebug, "detail %d", 2)
	out := buf.String()
	if !strings.Contains(out, "notice 1") {
		t.Errorf("info line missing: %q", out)
	}
	if strings.Contains(out, "detail") {
		t.Errorf("debug line emitted at info level: %q", out)
	}

	buf.Reset()
	q := New(&buf, LevelQuiet)
	q.Infof("notice")
	q.Progressf("progress")
	q.EndProgress()
	if buf.Len() != 0 {
		t.Errorf("quiet logger wrote %q", buf.String())
	}

	buf.Reset()
	d := New(&buf, LevelDebug)
	d.logf(LevelDebug, "detail")
	if !strings.Contains(buf.String(), "detail") {
		t.Errorf("debug line missing at debug level: %q", buf.String())
	}
}

func TestEnabled(t *testing.T) {
	l := New(&bytes.Buffer{}, LevelInfo)
	if !l.Enabled(LevelQuiet) || !l.Enabled(LevelInfo) || l.Enabled(LevelDebug) {
		t.Error("Enabled thresholds wrong at LevelInfo")
	}
}

func TestFromFlagsVerboseWins(t *testing.T) {
	cases := []struct {
		verbose, quiet bool
		want           Level
	}{
		{false, false, LevelInfo},
		{false, true, LevelQuiet},
		{true, false, LevelDebug},
		{true, true, LevelDebug}, // -v beats -quiet
	}
	for _, c := range cases {
		if got := FromFlags(c.verbose, c.quiet).lvl; got != c.want {
			t.Errorf("FromFlags(%v,%v) level = %d, want %d", c.verbose, c.quiet, got, c.want)
		}
	}
}

func TestProgressLineLifecycle(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo)
	l.Progressf("run %d/%d", 1, 10)
	l.Progressf("run %d/%d", 2, 10)
	if strings.Contains(buf.String(), "\n") {
		t.Errorf("progress lines must not emit newlines while open: %q", buf.String())
	}
	// The next regular line closes the open progress line first, so the
	// notice never lands on top of it.
	l.Infof("wrote out.csv")
	out := buf.String()
	if !strings.Contains(out, "run 2/10\nwrote out.csv\n") {
		t.Errorf("info did not terminate the progress line: %q", out)
	}

	// EndProgress terminates too, and is a no-op when nothing is open.
	buf.Reset()
	l.Progressf("x")
	l.EndProgress()
	l.EndProgress()
	if got := buf.String(); got != "\rx\n" {
		t.Errorf("EndProgress output %q, want \"\\rx\\n\"", got)
	}
}
