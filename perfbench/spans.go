package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mams/internal/obs"
	"mams/internal/sim"
)

// maxSpans bounds what one traced run keeps in memory.
const maxSpans = 200_000

// spanLog keeps the traced run's spans in memory until the run ends. Times
// are relative to the log's first span. All methods are safe on a nil log
// (untraced runs) and from any goroutine.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []obs.Span
	dropped int
}

// add records a completed span and returns its id (0 when not kept).
func (l *spanLog) add(parent obs.SpanID, name, node string, start, end time.Time, args ...string) obs.SpanID {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.t0.IsZero() {
		l.t0 = start
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	s := obs.Span{ID: obs.SpanID(len(l.spans) + 1), Parent: parent, Name: name, Node: node,
		Start: sim.Time(start.Sub(l.t0)), End: sim.Time(end.Sub(l.t0)), Done: true}
	if len(args) > 0 {
		s.Args = map[string]string{}
		for i := 0; i+1 < len(args); i += 2 {
			s.Args[args[i]] = args[i+1]
		}
	}
	l.spans = append(l.spans, s)
	return s.ID
}

// addSim records a span already timed in modeled (sim-plane) time.
func (l *spanLog) addSim(name, node string, start, end sim.Time, args ...string) {
	if l == nil {
		return
	}
	base := time.Unix(0, 0)
	l.add(0, name, node, base.Add(time.Duration(start)), base.Add(time.Duration(end)), args...)
}

// writeTrace dumps the spans as Chrome trace-event JSON into dir.
func writeTrace(dir, workload string, l *spanLog) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	l.mu.Lock()
	err = obs.WriteChromeTrace(f, l.spans)
	n, dropped := len(l.spans), l.dropped
	l.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	fmt.Printf("spans: %d kept, %d over the cap, written to %s\n", n, dropped, path)
	return nil
}
