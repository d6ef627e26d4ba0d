package main

import (
	"strings"
	"testing"
	"time"
)

// TestRefusesHealthModifiersWithoutHealth: the farm leaves fault tolerance
// off without -health, so a flag tuning it is refused by name before any
// proxy starts, rather than serving without what it asked for.
func TestRefusesHealthModifiersWithoutHealth(t *testing.T) {
	for _, args := range [][]string{
		{"-probe-interval", "50ms"},
		{"-fail-threshold", "2"},
		{"-retries", "5"},
		{"-hedge", "5ms"},
		{"-health=false", "-retries", "5"},
	} {
		name := strings.TrimPrefix(args[len(args)-2], "-")
		done := make(chan error, 1)
		go func() { done <- run(append([]string{"-proxies", "1"}, args...)) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "-"+name) {
				t.Errorf("adcfarm %v: err = %v, want one naming -%s", args, err, name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("adcfarm %v started serving instead of refusing -%s", args, name)
		}
	}
}
