// Chaos-mode support for adcload: windowed availability accounting while a
// fault schedule (-faults) kills, restarts and partitions farm proxies
// mid-run, and the derived report — availability per window, time-to-detect
// and time-to-recover per killed proxy. The schedule is parsed by
// internal/sim (faultspec.go, the grammar adcsim's -faults reads) and played
// by internal/httpproxy (chaos.go); this file is the client side of the
// experiment.
package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/adc-sim/adc/internal/httpproxy"
	"github.com/adc-sim/adc/internal/ids"
)

// availCell is one availability window's counters, updated lock-free by
// every worker.
type availCell struct {
	attempts atomic.Uint64
	failures atomic.Uint64
}

// availCounters buckets request outcomes into fixed wall-clock windows
// from run start. A shed (429) counts as success — the server answered;
// only transport errors and 5xx count against availability.
type availCounters struct {
	window time.Duration
	cells  []availCell
}

// newAvail sizes the window array for a run of the given duration; late
// stragglers land in the final cell.
func newAvail(window, duration time.Duration) *availCounters {
	n := int(duration/window) + 2
	return &availCounters{window: window, cells: make([]availCell, n)}
}

// record files one outcome at the given offset from run start.
func (a *availCounters) record(elapsed time.Duration, ok bool) {
	if a == nil {
		return
	}
	i := int(elapsed / a.window)
	if i < 0 {
		i = 0
	}
	if i >= len(a.cells) {
		i = len(a.cells) - 1
	}
	a.cells[i].attempts.Add(1)
	if !ok {
		a.cells[i].failures.Add(1)
	}
}

// availWindow is one availability sample of the report.
type availWindow struct {
	StartSec     float64 `json:"start_sec"`
	Attempts     uint64  `json:"attempts"`
	Failures     uint64  `json:"failures"`
	Availability float64 `json:"availability"`
}

// windows renders the non-empty cells.
func (a *availCounters) windows() []availWindow {
	var out []availWindow
	for i := range a.cells {
		att := a.cells[i].attempts.Load()
		if att == 0 {
			continue
		}
		fail := a.cells[i].failures.Load()
		out = append(out, availWindow{
			StartSec:     (time.Duration(i) * a.window).Seconds(),
			Attempts:     att,
			Failures:     fail,
			Availability: 1 - float64(fail)/float64(att),
		})
	}
	return out
}

// chaosEventReport is one applied schedule event.
type chaosEventReport struct {
	Action string  `json:"action"`
	Proxy  int     `json:"proxy,omitempty"`
	A      int     `json:"a,omitempty"`
	B      int     `json:"b,omitempty"`
	AtSec  float64 `json:"at_sec"`
	Err    string  `json:"error,omitempty"`
}

// chaosKillReport is the detection/recovery accounting for one killed
// proxy, derived from the farm's health-transition logs.
type chaosKillReport struct {
	Proxy        int     `json:"proxy"`
	KilledAtSec  float64 `json:"killed_at_sec"`
	RestartAtSec float64 `json:"restarted_at_sec,omitempty"`
	// TimeToDetectSec is kill → first peer marking the proxy down
	// (negative = never detected within the run).
	TimeToDetectSec float64 `json:"time_to_detect_sec"`
	// TimeToRecoverSec is restart → last peer marking the proxy up again
	// (negative = never fully recovered within the run).
	TimeToRecoverSec float64 `json:"time_to_recover_sec"`
	// Detections/Recoveries count peers that observed the transition.
	Detections int `json:"detections"`
	Recoveries int `json:"recoveries"`
}

// chaosReport is the chaos section of the run report.
type chaosReport struct {
	Spec    string             `json:"spec"`
	Events  []chaosEventReport `json:"events"`
	Kills   []chaosKillReport  `json:"kills,omitempty"`
	Windows []availWindow      `json:"windows"`
	// MinAvailability is the worst window; FinalAvailability covers the
	// last two windows — the "did it recover" number.
	MinAvailability   float64 `json:"min_availability"`
	FinalAvailability float64 `json:"final_availability"`
}

// buildChaosReport assembles the chaos section after the load has drained:
// the applied events, per-kill detect/recover times from the merged
// health-transition log, and the availability series.
func buildChaosReport(spec string, f *httpproxy.Farm, applied []httpproxy.AppliedChaos, start time.Time, avail *availCounters) *chaosReport {
	cr := &chaosReport{Spec: spec, Windows: avail.windows()}

	cr.MinAvailability = 1
	for _, w := range cr.Windows {
		if w.Availability < cr.MinAvailability {
			cr.MinAvailability = w.Availability
		}
	}
	if n := len(cr.Windows); n > 0 {
		last := cr.Windows[max(0, n-2):]
		var att, fail uint64
		for _, w := range last {
			att += w.Attempts
			fail += w.Failures
		}
		cr.FinalAvailability = 1 - float64(fail)/float64(att)
	}

	transitions := f.HealthTransitions()
	for _, ap := range applied {
		ev := chaosEventReport{Action: ap.Action, AtSec: ap.At.Seconds()}
		switch ap.Action {
		case "kill", "restart":
			ev.Proxy = ap.A
		default:
			ev.A, ev.B = ap.A, ap.B
		}
		if ap.Err != nil {
			ev.Err = ap.Err.Error()
		}
		cr.Events = append(cr.Events, ev)

		if ap.Action != "kill" {
			continue
		}
		kr := chaosKillReport{
			Proxy:            ap.A,
			KilledAtSec:      ap.At.Seconds(),
			TimeToDetectSec:  -1,
			TimeToRecoverSec: -1,
		}
		killWall := start.Add(ap.At)
		var restartWall time.Time
		for _, other := range applied {
			if other.Action == "restart" && other.A == ap.A && other.At > ap.At {
				restartWall = start.Add(other.At)
				kr.RestartAtSec = other.At.Seconds()
				break
			}
		}
		peer := ids.NodeID(ap.A)
		for _, tr := range transitions {
			if tr.Peer != peer {
				continue
			}
			switch tr.To {
			case httpproxy.PeerDown:
				if !tr.At.Before(killWall) && (restartWall.IsZero() || tr.At.Before(restartWall)) {
					kr.Detections++
					if d := tr.At.Sub(killWall).Seconds(); kr.TimeToDetectSec < 0 || d < kr.TimeToDetectSec {
						kr.TimeToDetectSec = d
					}
				}
			case httpproxy.PeerUp:
				if !restartWall.IsZero() && !tr.At.Before(restartWall) {
					kr.Recoveries++
					// Recovery is complete when the LAST peer readmits
					// the proxy, so keep the max.
					if d := tr.At.Sub(restartWall).Seconds(); d > kr.TimeToRecoverSec {
						kr.TimeToRecoverSec = d
					}
				}
			}
		}
		cr.Kills = append(cr.Kills, kr)
	}
	return cr
}

// printChaos renders the chaos section of the text report.
func printChaos(w io.Writer, cr *chaosReport) {
	fmt.Fprintf(w, "\nchaos     %s\n", cr.Spec)
	for _, ev := range cr.Events {
		switch ev.Action {
		case "kill", "restart":
			fmt.Fprintf(w, "  %-9s p%d @ %.2fs", ev.Action, ev.Proxy, ev.AtSec)
		default:
			fmt.Fprintf(w, "  %-9s p%d:p%d @ %.2fs", ev.Action, ev.A, ev.B, ev.AtSec)
		}
		if ev.Err != "" {
			fmt.Fprintf(w, "  ERROR: %s", ev.Err)
		}
		fmt.Fprintln(w)
	}
	for _, k := range cr.Kills {
		fmt.Fprintf(w, "  proxy %d: detect %s (%d peers), recover %s (%d peers)\n",
			k.Proxy, secOrNever(k.TimeToDetectSec), k.Detections,
			secOrNever(k.TimeToRecoverSec), k.Recoveries)
	}
	fmt.Fprintf(w, "availability  min %.4f  final %.4f  (%d windows)\n",
		cr.MinAvailability, cr.FinalAvailability, len(cr.Windows))
}

func secOrNever(s float64) string {
	if s < 0 {
		return "never"
	}
	return fmt.Sprintf("%.0fms", s*1000)
}
