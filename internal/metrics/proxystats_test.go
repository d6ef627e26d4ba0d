package metrics

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/adc-sim/adc/internal/promtext"
)

// fieldOf names the field of s a row's accessor points at, matched by
// address.
func fieldOf[S any, V uint64 | float64](t *testing.T, s *S, r *row[S, V]) string {
	t.Helper()
	v := reflect.ValueOf(s).Elem()
	p := r.field(s)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Addr().Interface() == any(p) {
			return v.Type().Field(i).Name
		}
	}
	t.Fatalf("row %s%v points outside %T", r.name, r.labels(), *s)
	return ""
}

// checkRows holds a table to one row per field of S, in struct order, each
// (name, label) exposed once and each family's rows adjacent.
func checkRows[S any, V uint64 | float64](t *testing.T, rows []row[S, V]) {
	t.Helper()
	var s S
	typ := reflect.TypeOf(s)
	if len(rows) != typ.NumField() {
		t.Fatalf("%d rows for %d %T fields", len(rows), typ.NumField(), s)
	}
	type series struct {
		name  string
		label promtext.Label
	}
	seen := map[series]bool{}
	for i := range rows {
		r := &rows[i]
		if got, want := fieldOf(t, &s, r), typ.Field(i).Name; got != want {
			t.Errorf("row %d (%s) reads %s, want %s", i, r.name, got, want)
		}
		if k := (series{r.name, r.label}); seen[k] {
			t.Errorf("(%s, %v) appears twice", r.name, r.label)
		} else {
			seen[k] = true
		}
		if i > 0 && rows[i-1].name != r.name {
			for _, earlier := range rows[:i-1] {
				if earlier.name == r.name {
					t.Errorf("family %s is split: its rows must be adjacent", r.name)
				}
			}
		}
	}
}

// TestCounterTableCoversProxyStats holds the counter table to one row per
// field, in struct order, each (name, label) exposed once under a counter
// name.
func TestCounterTableCoversProxyStats(t *testing.T) {
	checkRows(t, counters[:])
	for _, c := range counters {
		if !strings.HasSuffix(c.name, "_total") {
			t.Errorf("counter %s does not end in _total", c.name)
		}
	}
}

// TestGaugeTableCoversGauges holds the gauge table to one row per field, in
// struct order, and every name to one a gauge may take.
func TestGaugeTableCoversGauges(t *testing.T) {
	checkRows(t, gauges[:])
	names := map[string]bool{}
	for _, c := range counters {
		names[c.name] = true
	}
	for _, g := range gauges {
		if strings.HasSuffix(g.name, "_total") || names[g.name] || g.name == stageFamily {
			t.Errorf("gauge %s ends in _total or is another family's name", g.name)
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

func TestReadGaugesInvertsWriteProm(t *testing.T) {
	var g Gauges
	v := reflect.ValueOf(&g).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetFloat(float64(i) + 0.5)
	}
	var b strings.Builder
	pw := promtext.NewWriter(&b)
	g.WriteProm(pw)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := promtext.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := ReadGauges(d); got != g {
		t.Errorf("ReadGauges(WriteProm(g)) = %+v, want %+v", got, g)
	}
	for _, r := range gauges {
		if f := d.Families[r.name]; f == nil || f.Type != promtext.TypeGauge {
			t.Errorf("%s = %+v, want a gauge family", r.name, f)
		}
	}
}

// TestStageSetWriteProm pins the stage histograms' exposition: bounds
// exclusive, an interval of 200 ms or more only in +Inf, _sum over the
// positive intervals, and ReadStages reading the buckets back.
func TestStageSetWriteProm(t *testing.T) {
	var s StageSet
	for _, us := range []int64{-5, 0, 99, 100, 249, 200_000, 5_000_000} {
		s.Observe(StageForward, us)
	}
	s.Observe(StageOrigin, 120)
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
	stages := ReadStages(d)
	for st, want := range [NumStages][]uint64{
		StageForward: {3, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 7},
		StageOrigin:  {0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	} {
		var got []uint64
		for _, bk := range stages[st] {
			got = append(got, bk.Cum)
		}
		if want == nil {
			want = make([]uint64, len(stageBoundsUs)+1)
		}
		if !slices.Equal(got, want) {
			t.Errorf("stage %v: cumulative buckets %v, want %v", Stage(st), got, want)
		}
	}
	sum := -1.0
	for _, smp := range d.Families[stageFamily].Samples {
		if smp.Name == stageFamily+"_sum" && smp.Label("stage") == "forward" {
			sum = smp.Value
		}
	}
	if sum != 5.200448 {
		t.Errorf("forward _sum = %v s, want 5.200448", sum)
	}
}
