package sim

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/adc-sim/adc/internal/ids"
)

// Spec-string forms of FaultPlan and Recovery: the one grammar in which every
// failure schedule is written, whichever driver plays it.
//
//	-faults   'loss=0.01,jitter=2ms,seed=7,link=1>2:0.05,kill=p0@2s,restart=p0@4s!,partition=p1:p2@8s+4s'
//	-recovery 'timeout=400ms,retries=8,backoff=2,ttl=1s'
//
// Proxy refs read p3 or 3. Every time reads as integer ticks or as a Go
// duration at one tick per microsecond, the unit of DefaultLatencyModel, so
// 5s and 5000000 are the same instant. A restart pairs with the latest
// earlier kill of its proxy that no other restart took; its trailing '!'
// selects a cold restart (Crash.LoseTables).

// ParseFaultSpec parses the comma-separated fault-plan spec. An empty spec
// returns an error: a plan with no clauses would silently inject nothing.
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("sim: empty fault spec")
	}
	plan := &FaultPlan{}
	var restarts []Crash // Node, RestartAt and LoseTables of each restart
	err := eachClause(spec, "fault", func(key, val string) (err error) {
		switch key {
		case "loss":
			plan.Loss, err = strconv.ParseFloat(val, 64)
		case "jitter":
			plan.Jitter, err = parseTime(val)
		case "seed":
			plan.Seed, err = strconv.ParseInt(val, 10, 64)
		case "link":
			l := LinkLoss{}
			from, rest, _ := strings.Cut(val, ">")
			to, rate, ok := strings.Cut(rest, ":")
			if !ok {
				return fmt.Errorf("want FROM>TO:RATE")
			}
			if l.From, err = parseProxy(from); err == nil {
				if l.To, err = parseProxy(to); err == nil {
					l.Rate, err = strconv.ParseFloat(rate, 64)
				}
			}
			plan.LinkLoss = append(plan.LinkLoss, l)
		case "kill":
			c := Crash{}
			c.Node, c.At, err = parseProxyAt(val)
			plan.Crashes = append(plan.Crashes, c)
		case "restart":
			r := Crash{}
			val, r.LoseTables = strings.CutSuffix(val, "!")
			r.Node, r.RestartAt, err = parseProxyAt(val)
			restarts = append(restarts, r)
		case "partition":
			p := Partition{}
			pair, times, _ := strings.Cut(val, "@")
			a, b, ok := strings.Cut(pair, ":")
			if !ok {
				return fmt.Errorf("want A:B@AT[+SPAN]")
			}
			at, span, healed := strings.Cut(times, "+")
			if p.A, err = parseProxy(a); err == nil {
				if p.B, err = parseProxy(b); err == nil {
					p.At, err = parseTime(at)
				}
			}
			if err == nil && healed {
				var d int64
				d, err = parseTime(span)
				p.HealAt = p.At + d
			}
			plan.Partitions = append(plan.Partitions, p)
		default:
			err = fmt.Errorf("unknown key %q (want loss, jitter, seed, link, kill, restart or partition)", key)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, r := range restarts {
		k := -1
		for i, c := range plan.Crashes {
			if c.Node == r.Node && c.RestartAt == 0 && c.At < r.RestartAt && (k < 0 || c.At > plan.Crashes[k].At) {
				k = i
			}
		}
		if k < 0 {
			return nil, fmt.Errorf("sim: fault clause restart=%d@%d has no earlier kill of proxy %d to pair with", r.Node, r.RestartAt, r.Node)
		}
		plan.Crashes[k].RestartAt, plan.Crashes[k].LoseTables = r.RestartAt, r.LoseTables
	}
	return plan, nil
}

// ParseRecoverySpec parses the comma-separated recovery spec into an enabled
// Recovery. An empty spec selects the reference defaults — "-recovery ”"
// means "turn it on".
func ParseRecoverySpec(spec string) (Recovery, error) {
	r := Recovery{Enabled: true}
	err := eachClause(spec, "recovery", func(key, val string) (err error) {
		switch key {
		case "timeout":
			r.Timeout, err = parseTime(val)
		case "retries":
			r.MaxRetries, err = strconv.Atoi(val)
		case "backoff":
			r.Backoff, err = strconv.ParseFloat(val, 64)
		case "ttl":
			r.PendingTTL, err = parseTime(val)
		default:
			err = fmt.Errorf("unknown key %q (want timeout, retries, backoff or ttl)", key)
		}
		return err
	})
	return r, err
}

// eachClause hands every KEY=VALUE clause of a comma-separated spec to apply,
// naming the clause in any error.
func eachClause(spec, grammar string, apply func(key, val string) error) error {
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return fmt.Errorf("sim: %s clause %q is not key=value", grammar, clause)
		}
		if err := apply(key, val); err != nil {
			return fmt.Errorf("sim: %s clause %q: %w", grammar, clause, err)
		}
	}
	return nil
}

// parseProxyAt reads PROXY@TIME.
func parseProxyAt(s string) (ids.NodeID, int64, error) {
	node, at, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, fmt.Errorf("want PROXY@TIME")
	}
	p, err := parseProxy(node)
	if err != nil {
		return 0, 0, err
	}
	t, err := parseTime(at)
	return p, t, err
}

// parseProxy reads p3 or 3. Node IDs are 32 bits wide; an index beyond that
// must fail here instead of wrapping onto another proxy.
func parseProxy(s string) (ids.NodeID, error) {
	n, err := strconv.ParseUint(strings.TrimPrefix(s, "p"), 10, 31)
	if err != nil {
		return 0, fmt.Errorf("bad proxy %q (want pN or N, below 2^31)", s)
	}
	return ids.NodeID(n), nil
}

// parseTime reads a non-negative time: integer ticks, or a Go duration at
// one tick per microsecond.
func parseTime(s string) (int64, error) {
	t, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		d, derr := time.ParseDuration(s)
		if derr != nil {
			return 0, fmt.Errorf("bad time %q (want ticks or a duration such as 5s)", s)
		}
		t = int64(d / time.Microsecond)
	}
	if t < 0 {
		return 0, fmt.Errorf("negative time %q", s)
	}
	return t, nil
}
