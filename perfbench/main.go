// Command perfbench is the repository benchmark. It boots MAMS on the wire
// plane (3 coord + 3 mds processes, each on its own loopback TCP transport,
// plus the benchmark's client transport, all inside this one OS process) or
// on the sim plane, drives one named workload for a fixed time, checks every
// acknowledged operation afterwards, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the run
// repeats the workload with per-layer probes, spans and a CPU profile, and
// reports the per-layer metrics plus the tracing overhead (traced minus
// untraced) of every end-to-end metric.
//
// Usage: perfbench -workload NAME -seed N -seconds S -trace 0|1 [-out DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"mams/internal/mams"
	"mams/internal/workload"
)

// metric names one reported number; BENCHMARK.json lists the same set.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of the metadata service sees. On the sim
// workload rates and latencies are in modeled time. Tail percentiles are
// not among them: on a shared 2-vCPU host they follow CPU steal (p90 spread
// up to 0.4 of its median over runs of the same code), so they are printed
// with no bound.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"create_ops_s", "ops/s"},
	{"stat_ops_s", "ops/s"},
	{"slo_ops_s", "ops/s"},
	{"create_p50_ms", "ms"},
	{"stat_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"mem_peak_mb", "MB"},
}

// perLayer are measured from outside each layer in the traced run; a layer
// a workload does not exercise reads 0.
var perLayer = func() []metric {
	m := []metric{
		{"create_p90_ms", "ms"},
		{"create_p99_ms", "ms"},
		{"stat_p90_ms", "ms"},
		{"stat_p99_ms", "ms"},
		{"nettrans.probe_rtt_p50_us", "us"},
		{"nettrans.probe_rtt_p99_us", "us"},
	}
	for _, role := range loopRoles {
		m = append(m, metric{"nettrans.loop_wait_p50_us." + role, "us"}, metric{"nettrans.loop_wait_p99_us." + role, "us"})
	}
	m = append(m, []metric{
		{"nettrans.frames_per_op", "count"},
		{"nettrans.dropped", "count"},
		{"mams.ops_per_batch", "count"},
		{"mams.standby_lag_sn_max", "count"},
		{"mams.view_changes", "count"},
		{"failover.elect_s", "s"},
		{"failover.reconnect_s", "s"},
		{"unavail_s", "s"},
		{"slo_miss_ratio", "ratio"},
		{"fsclient.retries_per_op", "count"},
		{"runtime.alloc_kb_per_op", "KB"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.sched_wait_p99_us", "us"},
		{"sim.events_per_op", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"gen.late_p99_ms", "ms"},
		{"gen.inflight_max", "count"},
	}...)
	for _, c := range cpuClasses {
		m = append(m, metric{"cpu.share." + c, "ratio"})
	}
	for _, e := range endToEnd {
		m = append(m, metric{"overhead." + e.name, e.unit})
	}
	return m
}()

// workloads maps each name to its runner. Why each exists is recorded in
// BENCHMARK.json and README.md.
var workloads = map[string]func(seed uint64, seconds int, traced bool) (*result, error){
	"wire-stat-heavy": func(seed uint64, seconds int, traced bool) (*result, error) {
		return runWire(wireSpec{mix: workload.Mix{mams.OpStat: 0.9, mams.OpCreate: 0.1}, rate: 2000}, seed, seconds, traced)
	},
	"wire-create-closed": func(seed uint64, seconds int, traced bool) (*result, error) {
		return runWire(wireSpec{mix: workload.Mix{mams.OpCreate: 1}, inflight: 16}, seed, seconds, traced)
	},
	"wire-failover": func(seed uint64, seconds int, traced bool) (*result, error) {
		return runWire(wireSpec{mix: workload.CreateMkdir(), rate: 500, kill: true, trials: 2}, seed, seconds, traced)
	},
	"sim-paper-mix": runSim,
}

// setupRounds is how many times each run sets up; setup_s is their median.
const setupRounds = 5

// trial is one measured window, reduced to what the metrics need.
type trial struct {
	creates, stats    []float64 // latency samples, ms
	window, statSecs  float64   // s over which the creates and the stats were counted
	sloOK             int       // ops answered without error within sloLimit
	cpuUS             float64   // process CPU charged to the trial's ops, µs
	memMB             float64
	attempted, failed int
	problems          []string // correctness failures
	layer             map[string]float64
	spans             *spanLog
}

// result is one pass of a workload: its set-up times and measured trials.
type result struct {
	setup  []float64 // s, one per set-up round
	trials []*trial
}

// pooled returns the latency samples of every trial together.
func (r *result) pooled() (creates, stats []float64) {
	for _, t := range r.trials {
		creates = append(creates, t.creates...)
		stats = append(stats, t.stats...)
	}
	return
}

// endToEnd reports setup_s as the median set-up and computes every other
// metric over the trials pooled: samples, counts and durations add up, so a
// metric over several failovers averages their outages instead of snapping
// to one of them. It fails when a median has too few samples beyond it.
func (r *result) endToEnd() (map[string]float64, error) {
	creates, stats := r.pooled()
	var window, statSecs, cpu, mem float64
	attempted, sloOK := 0, 0
	for _, t := range r.trials {
		window += t.window
		statSecs += t.statSecs
		cpu += t.cpuUS
		attempted += t.attempted
		sloOK += t.sloOK
		mem = max(mem, t.memMB)
	}
	m := map[string]float64{
		"setup_s":       median(r.setup),
		"create_ops_s":  float64(len(creates)) / window,
		"stat_ops_s":    float64(len(stats)) / statSecs,
		"slo_ops_s":     float64(sloOK) / window,
		"cpu_us_per_op": cpu / float64(attempted),
		"mem_peak_mb":   mem,
	}
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"create", creates}, {"stat", stats}} {
		v, err := percentile(s.xs, 0.5)
		if err != nil {
			return nil, fmt.Errorf("%s_p50_ms: %w", s.name, err)
		}
		m[s.name+"_p50_ms"] = v
	}
	return m, nil
}

// showTails prints the pooled p90 and p99 of each kind with its sample
// count; a percentile with fewer than minBeyond samples above it is left out.
func (r *result) showTails() {
	creates, stats := r.pooled()
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"create", creates}, {"stat", stats}} {
		for _, q := range []float64{0.9, 0.99} {
			if v, err := percentile(s.xs, q); err == nil {
				fmt.Printf("  %-36s %14.4f ms  (%d samples)\n", fmt.Sprintf("%s_p%g_ms", s.name, q*100), v, len(s.xs))
			}
		}
	}
}

// layerTrial is the trial whose per-layer numbers are reported: the one with
// the median unavail_s, so that the failover stages come from one failover.
func (r *result) layerTrial() *trial {
	ts := append([]*trial(nil), r.trials...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].layer["unavail_s"] < ts[j].layer["unavail_s"] })
	return ts[len(ts)/2]
}

func (r *result) counts() (attempted, failed int, problems []string) {
	for _, t := range r.trials {
		attempted += t.attempted
		failed += t.failed
		problems = append(problems, t.problems...)
	}
	return
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured window per run, seconds")
	trace := flag.Int("trace", 0, "1: per-layer run with spans and CPU profile")
	out := flag.String("out", ".bench_build", "directory for span dumps and CPU profiles")
	flag.Parse()
	os.Exit(run(*name, *seed, *seconds, *trace == 1, *out))
}

func run(name string, seed uint64, seconds int, traced bool, out string) int {
	runner, ok := workloads[name]
	if !ok || seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds %d (workloads: %s)\n",
			name, seconds, strings.Join(workloadNames(), ", "))
		return 2
	}
	printHost()
	fmt.Printf("workload %s  seed %d  seconds %d  trace %v\n", name, seed, seconds, traced)

	base, err := runner(seed, seconds, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	final := base
	if traced {
		if final, err = runner(seed, seconds, true); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", name, err)
			return 1
		}
	}
	attempted, failed, problems := final.counts()
	if traced {
		_, _, p := base.counts()
		problems = append(p, problems...)
	}
	rep := report{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: INCORRECT: %s\n", p)
	}
	if !rep.Correct {
		emit(rep)
		return 1
	}
	e2e, err := base.endToEnd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run rejected: %v\n", name, err)
		return 1
	}
	creates, stats := 0, 0
	for _, t := range base.trials {
		creates, stats = creates+len(t.creates), stats+len(t.stats)
	}
	fmt.Printf("end-to-end (%d trials pooled: %d create and %d stat samples):\n", len(base.trials), creates, stats)
	show(endToEnd, e2e)
	fmt.Println("tails, pooled (no bound):")
	base.showTails()
	fmt.Println("failover and SLO of the median trial (no bound; repeated in the traced run):")
	show([]metric{{"unavail_s", "s"}, {"slo_miss_ratio", "ratio"}}, base.layerTrial().layer)
	chosen, values := endToEnd, e2e
	if traced {
		tracedE2E, err := final.endToEnd()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: run rejected: %v\n", name, err)
			return 1
		}
		lt := final.layerTrial()
		for _, q := range []float64{0.9, 0.99} {
			lt.layer[fmt.Sprintf("create_p%g_ms", q*100)], _ = percentile(lt.creates, q)
			lt.layer[fmt.Sprintf("stat_p%g_ms", q*100)], _ = percentile(lt.stats, q)
		}
		for _, e := range endToEnd {
			lt.layer["overhead."+e.name] = tracedE2E[e.name] - e2e[e.name]
		}
		fmt.Println("per-layer:")
		show(perLayer, lt.layer)
		if err := writeTrace(out, name, lt.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		chosen, values = perLayer, lt.layer
	}
	for _, m := range chosen {
		rep.Metrics[m.name] = jsonMetric{Value: values[m.name], Unit: m.unit}
	}
	if !emit(rep) {
		return 1
	}
	return 0
}

func show(ms []metric, values map[string]float64) {
	for _, m := range ms {
		fmt.Printf("  %-36s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
}

// emit prints the report as the last line of standard output. A value JSON
// cannot carry (NaN, ±Inf) is a benchmark bug: it is reported, not printed.
func emit(rep report) bool {
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		return false
	}
	fmt.Println(string(b))
	return true
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHost names the machine the numbers came from.
func printHost() {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("host: nproc %d  GOMAXPROCS %d  cpu %q  %s  commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), commit)
}
