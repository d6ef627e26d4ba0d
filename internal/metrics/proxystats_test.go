package metrics

import (
	"reflect"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/promtext"
)

// fieldOf names the ProxyStats field a row's accessor points at, matched by
// address.
func fieldOf(t *testing.T, s *ProxyStats, c *counter) string {
	t.Helper()
	v := reflect.ValueOf(s).Elem()
	p := c.field(s)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Addr().Interface() == any(p) {
			return v.Type().Field(i).Name
		}
	}
	t.Fatalf("row %s%v points outside ProxyStats", c.name, c.labels())
	return ""
}

// TestCounterTableCoversProxyStats holds the table to one row per field, in
// struct order, each (name, label) exposed once under a counter name.
func TestCounterTableCoversProxyStats(t *testing.T) {
	var s ProxyStats
	typ := reflect.TypeOf(s)
	if len(counters) != typ.NumField() {
		t.Fatalf("%d rows for %d ProxyStats fields", len(counters), typ.NumField())
	}
	type series struct {
		name  string
		label promtext.Label
	}
	seen := map[series]bool{}
	for i := range counters {
		c := &counters[i]
		if got, want := fieldOf(t, &s, c), typ.Field(i).Name; got != want {
			t.Errorf("row %d (%s) reads %s, want %s", i, c.name, got, want)
		}
		if !strings.HasSuffix(c.name, "_total") {
			t.Errorf("counter %s does not end in _total", c.name)
		}
		if k := (series{c.name, c.label}); seen[k] {
			t.Errorf("(%s, %v) appears twice", c.name, c.label)
		} else {
			seen[k] = true
		}
		if i > 0 && counters[i-1].name != c.name {
			for _, earlier := range counters[:i-1] {
				if earlier.name == c.name {
					t.Errorf("family %s is split: its rows must be adjacent", c.name)
				}
			}
		}
	}
}

// numbered sets field i of a ProxyStats to i+1.
func numbered() ProxyStats {
	var s ProxyStats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	return s
}

func TestProxyStatsAddSumsEveryField(t *testing.T) {
	s := numbered()
	s.Add(numbered())
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if got, want := v.Field(i).Uint(), uint64(2*(i+1)); got != want {
			t.Errorf("%s = %d after Add, want %d", v.Type().Field(i).Name, got, want)
		}
	}
}

func TestReadPromInvertsWriteProm(t *testing.T) {
	s := numbered()
	var b strings.Builder
	pw := promtext.NewWriter(&b)
	s.WriteProm(pw)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := promtext.Lint(strings.NewReader(b.String())); err != nil {
		t.Fatalf("WriteProm output does not lint: %v\n%s", err, b.String())
	}
	d, err := promtext.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := ReadProm(d); got != s {
		t.Errorf("ReadProm(WriteProm(s)) = %+v, want %+v", got, s)
	}
	if f := d.Families["adc_forwards_total"]; f == nil || f.Type != promtext.TypeCounter || len(f.Samples) != 3 {
		t.Errorf("adc_forwards_total = %+v, want one counter family of three routes", f)
	}
}
