package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"mams/internal/cluster"
	"mams/internal/fsclient"
	"mams/internal/mams"
	"mams/internal/sim"
	"mams/internal/workload"
)

const (
	// simClients is the closed-loop concurrency of the Fig. 6 mix.
	simClients = 128
	// simOpsPerSecond sizes the sim run from -seconds. The op count, not a
	// host-time budget, bounds the run so that modeled results repeat
	// exactly for a seed on any host.
	simOpsPerSecond = 15_000
	simSegments     = 6
	// simPreload files exist before the window, so stats have targets.
	simPreload = 10_000
)

// simRec observes every client result on the sim plane. The world is
// single-threaded, so no locking.
type simRec struct {
	creates, stats []float64 // modeled latency, ms
	acked          []string  // acknowledged create paths
	mutations      int
	sloOK          int // answered within sloLimit of modeled time
	failed         int
	retries        int
	spans          *spanLog
}

func (r *simRec) observe(res fsclient.Result) {
	r.retries += res.Retries
	if res.Err != nil {
		r.failed++
		return
	}
	lat := float64(res.End-res.Start) / float64(sim.Millisecond)
	if lat <= ms(sloLimit) {
		r.sloOK++
	}
	switch res.Kind {
	case mams.OpCreate:
		r.creates = append(r.creates, lat)
		r.acked = append(r.acked, res.Path)
	case mams.OpStat:
		r.stats = append(r.stats, lat)
	}
	if res.Kind.Mutating() {
		r.mutations++
	}
	r.spans.addSim("op", "sim-client", res.Start, res.End, "kind", res.Kind.String())
}

// runSim drives the paper's Fig. 6 mix on a 1A3S group in the simulator:
// no codec and no sockets, so host cost is the event engine plus the
// protocol code.
func runSim(seed uint64, seconds int, traced bool) (*result, error) {
	res := &result{}
	var (
		env *cluster.Env
		mc  *cluster.MAMSCluster
		drv *workload.Driver
		rec *simRec
	)
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		env = cluster.NewEnv(seed)
		mc = cluster.BuildMAMS(env, cluster.MAMSSpec{Groups: 1, BackupsPerGroup: 3})
		if !mc.AwaitStable(60 * sim.Second) {
			return nil, fmt.Errorf("sim: group never stabilized")
		}
		rec = &simRec{}
		drv = workload.NewDriver(env, mc.AsSystem(), simClients, rec.observe)
		drv.Setup(dirCount)
		drv.Preload(simPreload, simClients)
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	*rec = simRec{}
	if traced {
		rec.spans = &spanLog{}
	}
	active := mc.ActiveOf(0)
	sn0, epoch0, steps0 := active.LastSN(), active.View().Epoch, env.World.Steps()

	// The run is split into segments, each timed on its own, and host cost
	// is the median segment's: a burst of host noise then moves one
	// segment. Modeled results cover the whole run and repeat exactly.
	ops := seconds * simOpsPerSecond
	segOps := ops / simSegments
	ops = segOps * simSegments
	var elapsed sim.Time
	var host time.Duration
	var cpu []float64
	debug.FreeOSMemory() // the window neither pays for set-up garbage nor inherits its peak RSS
	resetPeakRSS()
	prof := startProfile(traced)
	rt0 := readRuntime()
	for s, prev := 0, rt0; s < simSegments; s++ {
		t0 := time.Now()
		elapsed += drv.RunMix(workload.MixedPaper(), segOps, simClients)
		host += time.Since(t0)
		now := readRuntime()
		cpu = append(cpu, us(now.cpu-prev.cpu)/float64(segOps))
		prev = now
	}
	rt1 := readRuntime()
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}

	n := float64(ops)
	modeled := elapsed.Seconds()
	t := &trial{
		creates:   rec.creates,
		stats:     rec.stats,
		window:    modeled,
		statSecs:  modeled,
		sloOK:     rec.sloOK,
		cpuUS:     median(cpu) * n,
		memMB:     peakRSSMB(),
		attempted: ops,
		failed:    rec.failed,
		layer:     map[string]float64{},
		spans:     rec.spans,
	}
	res.trials = []*trial{t}
	if f := drv.Failed(); f > 0 || rec.failed > 0 {
		t.problems = append(t.problems, fmt.Sprintf("sim: %d driver and %d client ops failed", f, rec.failed))
	}
	for _, rep := range mc.Verify() {
		if !rep.Consistent {
			t.problems = append(t.problems, "sim: "+rep.String())
		}
	}
	if active = mc.ActiveOf(0); active == nil {
		return nil, fmt.Errorf("sim: no active after the run")
	}
	for _, path := range rec.acked {
		if !active.Tree().Exists(path) {
			t.problems = append(t.problems, "sim: acked create lost: "+path)
		}
	}

	events := float64(env.World.Steps() - steps0)
	l := t.layer
	l["sim.events_per_op"] = events / n
	l["sim.host_ns_per_event"] = float64(host.Nanoseconds()) / events
	if sn := active.LastSN(); sn > sn0 {
		l["mams.ops_per_batch"] = float64(rec.mutations) / float64(sn-sn0)
	}
	l["mams.view_changes"] = float64(active.View().Epoch - epoch0)
	l["fsclient.retries_per_op"] = float64(rec.retries) / n
	rt0.layer(rt1, n, l)
	for k, v := range shares {
		l[k] = v
	}
	return res, nil
}
