package adc

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec-string forms of FaultPlan and Recovery, so the CLI tools can take a
// whole failure schedule in one flag:
//
//	-faults  'loss=0.01,jitter=2000,seed=7,crash=0@2000000-4000000!,link=1>2:0.05'
//	-recovery 'timeout=400000,retries=8,backoff=2,ttl=1000000'
//
// Crash clauses read PROXY@AT[-RESTART][!]; the trailing '!' selects a cold
// restart (tables lost). Link clauses read FROM>TO:RATE with 0-based proxy
// indices. Every duration is in virtual ticks.

// ParseFaultSpec parses the comma-separated fault-plan spec. An empty spec
// returns an error: a plan with no clauses would silently inject nothing.
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("adc: empty fault spec")
	}
	plan := &FaultPlan{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("adc: fault clause %q is not key=value", clause)
		}
		var err error
		switch key {
		case "loss":
			plan.Loss, err = strconv.ParseFloat(val, 64)
		case "jitter":
			plan.Jitter, err = strconv.ParseInt(val, 10, 64)
		case "seed":
			plan.Seed, err = strconv.ParseInt(val, 10, 64)
		case "crash":
			var cr Crash
			cr, err = parseCrashClause(val)
			plan.Crashes = append(plan.Crashes, cr)
		case "link":
			var ll LinkLoss
			ll, err = parseLinkClause(val)
			plan.LinkLoss = append(plan.LinkLoss, ll)
		default:
			return nil, fmt.Errorf("adc: unknown fault key %q (want loss, jitter, seed, crash or link)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("adc: fault clause %q: %w", clause, err)
		}
	}
	return plan, nil
}

// parseCrashClause reads PROXY@AT[-RESTART][!].
func parseCrashClause(s string) (Crash, error) {
	var cr Crash
	if strings.HasSuffix(s, "!") {
		cr.LoseTables = true
		s = strings.TrimSuffix(s, "!")
	}
	node, times, ok := strings.Cut(s, "@")
	if !ok {
		return cr, fmt.Errorf("want PROXY@AT[-RESTART][!]")
	}
	var err error
	if cr.Proxy, err = parseProxy(node); err != nil {
		return cr, err
	}
	at, restart, hasRestart := strings.Cut(times, "-")
	if cr.At, err = strconv.ParseInt(at, 10, 64); err != nil {
		return cr, err
	}
	if hasRestart {
		if cr.RestartAt, err = strconv.ParseInt(restart, 10, 64); err != nil {
			return cr, err
		}
	}
	return cr, nil
}

// parseProxy reads a proxy index. Node IDs are 32 bits wide; an index
// beyond that must fail here instead of wrapping onto another proxy.
func parseProxy(s string) (int, error) {
	n, err := strconv.ParseInt(s, 10, 32)
	return int(n), err
}

// parseLinkClause reads FROM>TO:RATE.
func parseLinkClause(s string) (LinkLoss, error) {
	var ll LinkLoss
	link, rate, ok := strings.Cut(s, ":")
	if !ok {
		return ll, fmt.Errorf("want FROM>TO:RATE")
	}
	from, to, ok := strings.Cut(link, ">")
	if !ok {
		return ll, fmt.Errorf("want FROM>TO:RATE")
	}
	var err error
	if ll.FromProxy, err = parseProxy(from); err != nil {
		return ll, err
	}
	if ll.ToProxy, err = parseProxy(to); err != nil {
		return ll, err
	}
	ll.Rate, err = strconv.ParseFloat(rate, 64)
	return ll, err
}

// ParseRecoverySpec parses the comma-separated recovery spec. An empty spec
// selects the reference defaults — "-recovery ”" means "turn it on".
func ParseRecoverySpec(spec string) (*Recovery, error) {
	r := &Recovery{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("adc: recovery clause %q is not key=value", clause)
		}
		var err error
		switch key {
		case "timeout":
			r.Timeout, err = strconv.ParseInt(val, 10, 64)
		case "retries":
			r.MaxRetries, err = strconv.Atoi(val)
		case "backoff":
			r.Backoff, err = strconv.ParseFloat(val, 64)
		case "ttl":
			r.PendingTTL, err = strconv.ParseInt(val, 10, 64)
		default:
			return nil, fmt.Errorf("adc: unknown recovery key %q (want timeout, retries, backoff or ttl)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("adc: recovery clause %q: %w", clause, err)
		}
	}
	return r, nil
}
