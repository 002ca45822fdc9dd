package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"mams/internal/mams"
	"mams/internal/workload"
)

func draw(seed uint64) []op {
	g := newGen(seed, workload.Mix{mams.OpStat: 0.5, mams.OpCreate: 0.3, mams.OpMkdir: 0.2})
	ops := append([]op(nil), g.preload(200)...)
	for i := 0; i < 2000; i++ {
		ops = append(ops, g.next())
	}
	return ops
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generators with seed 7 drew different inputs")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("seeds 7 and 8 drew identical inputs")
	}
	seen := map[string]bool{}
	for _, o := range a {
		if o.kind != mams.OpStat && seen[o.path] {
			t.Fatalf("path %s generated twice: a create would fail", o.path)
		}
		seen[o.path] = true
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, q := range []float64{0.5, 0.99} {
		for n := 1; n <= 2500; n++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[n-1-i] = float64(i + 1) // descending: percentile must sort
			}
			v, err := percentile(xs, q)
			if err != nil {
				continue
			}
			if beyond := n - int(v); beyond < minBeyond {
				t.Fatalf("p%g of %d samples = %v with only %d beyond it", q*100, n, v, beyond)
			}
		}
	}
	if _, err := percentile(make([]float64, 999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	if _, err := percentile(make([]float64, 1000), 0.99); err != nil {
		t.Fatalf("p99 of 1000 samples rejected: %v", err)
	}
}

func TestShortRunRejected(t *testing.T) {
	tr := &trial{creates: make([]float64, 19), stats: make([]float64, 5000), window: 1, statSecs: 1, attempted: 5019}
	r := &result{setup: []float64{1}, trials: []*trial{tr}}
	if _, err := r.endToEnd(); err == nil {
		t.Fatal("a run with 19 creates reported a create p50")
	}
	tr.creates = make([]float64, 20)
	if _, err := r.endToEnd(); err != nil {
		t.Fatalf("a run with 20 creates and 5000 stats rejected: %v", err)
	}
}

// TestOpenLoopCountsGeneratorLateness stalls the first post for 60 ms: the
// ops due during the stall must still be issued at their original due
// times, so each is timed from when it was due and carries the stall.
func TestOpenLoopCountsGeneratorLateness(t *testing.T) {
	const rate, stall = 1000.0, 60 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(200 * time.Millisecond)
	var dues []time.Time
	var lat []time.Duration
	stalled := false
	runOpen(start, end, rate, func(due []time.Time) {
		if !stalled {
			stalled = true
			time.Sleep(stall)
		}
		now := time.Now()
		for _, d := range due {
			dues = append(dues, d)
			lat = append(lat, now.Sub(d))
		}
	})
	if len(dues) != 200 {
		t.Fatalf("%d ops issued, want 200 (rate × window)", len(dues))
	}
	for i, d := range dues {
		if want := start.Add(time.Duration(i) * time.Millisecond); !d.Equal(want) {
			t.Fatalf("op %d due %v, want %v: the schedule moved with the stall", i, d.Sub(start), want.Sub(start))
		}
	}
	if lat[1] < stall-5*time.Millisecond {
		t.Fatalf("op due 1 ms in waited %v, want about the %v stall", lat[1], stall)
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames())
	}
	for _, c := range []struct {
		what string
		json []entry
		prog []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []entry
		for _, m := range c.prog {
			got = append(got, entry{m.name, m.unit})
		}
		if !reflect.DeepEqual(c.json, got) {
			t.Errorf("%s: BENCHMARK.json %v\nprogram %v", c.what, c.json, got)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseProfile(t *testing.T) {
	p := startProfile(true)
	if p.buf == nil {
		t.Skip("a CPU profile is already running")
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.count <= 0 || len(s.funcs) == 0 {
			t.Fatalf("sample without count or stack: %+v", s)
		}
		found = found || strings.Contains(strings.Join(s.funcs, " "), ".spin")
	}
	if !found {
		t.Fatalf("no sample in spin among %d samples", len(samples))
	}
}

func TestClassifyInnermostFrameWins(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "encoding/gob.(*Decoder).Decode", "mams/internal/nettrans.readFrame"}, "gob"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "encoding/gob.(*Encoder).Encode"}, "gc"},
		{[]string{"mams/internal/namespace.(*Tree).Create", "mams/internal/sim.(*World).Step"}, "protocol"},
		{[]string{"container/heap.Pop", "mams/internal/sim.(*World).Step"}, "sim"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "net.(*conn).Write"}, "net_syscall"},
		{[]string{"runtime.futex", "mams/internal/nettrans.(*Transport).run"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
