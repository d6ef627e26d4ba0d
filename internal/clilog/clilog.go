// Package clilog is the shared leveled logger of the command-line tools,
// and their one way of turning down a flag a run would not read.
//
// The tools' reports — tables, CSV, JSONL — belong on stdout; everything
// about the run itself (progress, notices, debug detail) belongs on
// stderr, so piping a report into a file or another tool never captures
// chatter. Before this split, adcsweep printed notices like "wrote
// out.csv" to stdout, garbling piped CSV. The logger enforces the split:
// it writes only to the writer it was built with (stderr in the CLIs),
// with levels selected by the -v/-quiet flags and no timestamps (the
// driver of a CLI is a human or a Makefile, not a log aggregator).
package clilog

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
)

// Level orders the verbosity tiers.
type Level int8

// Levels. Quiet silences everything including progress; Info is the
// default; Debug adds per-step detail behind -v.
const (
	LevelQuiet Level = iota
	LevelInfo
	LevelDebug
)

// Logger writes leveled messages to one writer. The zero value is unusable;
// build with New or FromFlags. Methods are safe for concurrent use.
type Logger struct {
	mu         sync.Mutex
	w          io.Writer
	lvl        Level
	inProgress bool // a \r progress line is open and unterminated
}

// New builds a logger writing to w at the given level.
func New(w io.Writer, lvl Level) *Logger {
	return &Logger{w: w, lvl: lvl}
}

// FromFlags maps the conventional -v/-quiet pair to a stderr logger.
// -v wins if both are set: asking for more detail is the stronger signal.
func FromFlags(verbose, quiet bool) *Logger {
	lvl := LevelInfo
	if quiet {
		lvl = LevelQuiet
	}
	if verbose {
		lvl = LevelDebug
	}
	return New(os.Stderr, lvl)
}

// Enabled reports whether messages at lvl are emitted.
func (l *Logger) Enabled(lvl Level) bool { return lvl <= l.lvl }

// Infof logs a formatted line at the default level.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, format, args...) }

func (l *Logger) logf(lvl Level, format string, args ...any) {
	if !l.Enabled(lvl) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeProgressLocked()
	fmt.Fprintf(l.w, format+"\n", args...)
}

// Progressf rewrites a single carriage-returned status line, shown at the
// default level. A later Infof/Debugf or EndProgress terminates the line
// with a newline so it is never overwritten mid-display.
func (l *Logger) Progressf(format string, args ...any) {
	if !l.Enabled(LevelInfo) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "\r"+format, args...)
	l.inProgress = true
}

// EndProgress terminates an open progress line, if any.
func (l *Logger) EndProgress() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeProgressLocked()
}

func (l *Logger) closeProgressLocked() {
	if l.inProgress {
		fmt.Fprintln(l.w)
		l.inProgress = false
	}
}

// Refuse fails, naming the flag, if any of names was set on fs: a flag the
// run would not read must stop it rather than be silently dropped. The
// error reads "-NAME " + why, e.g. "-retries needs -health".
func Refuse(fs *flag.FlagSet, why string, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(names, f.Name) {
			err = fmt.Errorf("-%s %s", f.Name, why)
		}
	})
	return err
}
