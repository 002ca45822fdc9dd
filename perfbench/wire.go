package main

import (
	"encoding/gob"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"mams/internal/fsclient"
	"mams/internal/mams"
	"mams/internal/namespace"
	"mams/internal/nettrans"
	"mams/internal/nettrans/testutil"
	"mams/internal/sim"
	"mams/internal/transport"
	"mams/internal/workload"
)

// wireSpec is one wire-plane workload.
type wireSpec struct {
	mix      workload.Mix
	rate     float64 // open loop: ops due per second; 0 selects the closed loop
	inflight int     // closed loop: ops kept outstanding
	kill     bool    // kill the active killFrac into the window
	trials   int     // independent boots measured, each for an equal share of the window
}

const (
	preloadFiles   = 2000
	preloadWindow  = 64
	verifyInflight = 64
	// sloLimit is the latency an op may take, from its due time, before it
	// counts as an SLO miss (slo_miss_ratio).
	sloLimit    = 100 * time.Millisecond
	killFrac    = 0.3
	sampleEvery = 3 * time.Millisecond
	electPoll   = 2 * time.Millisecond
	drainLimit  = 60 * time.Second
	settleLimit = 5 * time.Second
	// statPhase is how long, summed over a run's trials, a workload that
	// issues no stats times stats of the ops it acknowledged, statInflight
	// at a time. One in flight keeps the phase off the saturated CPU queue,
	// whose throughput swings with host steal from run to run.
	statPhase    = 4 * time.Second
	statInflight = 1
	statChunk    = 64 // stats per pipeline call in that phase

	clientID = transport.NodeID("perfbench-client")
	probeID  = transport.NodeID("perfbench-probe")
)

// ping is the probe payload; the echo node answers with it unchanged. gob
// refuses structs without exported fields, hence N.
type ping struct{ N uint64 }

func init() { gob.Register(ping{}) }

func echoID(i int) transport.NodeID { return transport.NodeID(fmt.Sprintf("perfbench-echo%d", i)) }

// echo answers every request with the request itself: a round trip through
// codec, sockets and both event loops with no protocol work.
type echo struct{}

func (echo) HandleMessage(transport.NodeID, any) {}
func (echo) HandleRequest(_ transport.NodeID, req any, reply func(any)) {
	reply(req)
}

// deployment is one booted wire-plane cluster (3 coord + 3 mds transports)
// plus the benchmark's own client transport.
type deployment struct {
	c     *testutil.Cluster
	tr    *nettrans.Transport
	cl    *fsclient.Client
	probe transport.Node

	retries int // client-loop-owned: sum of Result.Retries
}

// boot starts a cluster, waits for one active and two standbys, attaches the
// benchmark client and creates the directories and preload files.
func boot(seed uint64, preload []op) (*deployment, error) {
	c, err := testutil.NewCluster(testutil.ClusterConfig{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	d := &deployment{c: c}
	if !c.AwaitStable(20 * time.Second) {
		d.close()
		return nil, fmt.Errorf("boot: group never reached 1 active + 2 standbys")
	}
	d.tr, err = nettrans.New(nettrans.Config{Addr: "127.0.0.1:0", Book: c.Book})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("boot client transport: %w", err)
	}
	c.Book.Set(clientID, d.tr.Addr())
	c.Book.Set(probeID, d.tr.Addr())
	for i, p := range c.MDS {
		p.Tr.Listen(echoID(i), echo{})
		c.Book.Set(echoID(i), p.Tr.Addr())
	}
	d.tr.Do(func() {
		d.cl = fsclient.New(d.tr, fsclient.Config{
			ID:             clientID,
			Groups:         c.GroupIDs,
			Partitioner:    c.Part,
			RequestTimeout: 500 * sim.Millisecond,
			RetryBackoff:   50 * sim.Millisecond,
			OnResult:       func(r fsclient.Result) { d.retries += r.Retries },
		})
		d.probe = d.tr.Listen(probeID, echo{})
	})
	dirs := []op{{kind: mams.OpMkdir, path: "/pb"}}
	subdirs := make([]op, dirCount)
	for i := range subdirs {
		subdirs[i] = op{kind: mams.OpMkdir, path: dirPath(i)}
	}
	for _, batch := range [][]op{dirs, subdirs, preload} {
		var failed error
		err := d.pipeline(batch, preloadWindow, func(i int, _ time.Time, _ *namespace.Info, err error) {
			if err != nil && failed == nil {
				failed = fmt.Errorf("setup %s: %w", batch[i].path, err)
			}
		})
		if err == nil {
			err = failed
		}
		if err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *deployment) close() {
	if d.tr != nil {
		d.tr.Close()
	}
	d.c.Close()
}

// issue sends o through the client; cb runs on the client loop.
func (d *deployment) issue(o op, cb func(*namespace.Info, error)) {
	switch o.kind {
	case mams.OpCreate:
		d.cl.Create(o.path, o.size, func(err error) { cb(nil, err) })
	case mams.OpMkdir:
		d.cl.Mkdir(o.path, func(err error) { cb(nil, err) })
	default:
		d.cl.Stat(o.path, cb)
	}
}

// pipeline runs ops with at most inflight outstanding and returns once every
// one has answered. done runs on the client loop with each op's index and
// issue time.
func (d *deployment) pipeline(ops []op, inflight int, done func(i int, issued time.Time, info *namespace.Info, err error)) error {
	if len(ops) == 0 {
		return nil
	}
	finished := make(chan struct{})
	next, left := 0, len(ops)
	var issue func()
	issue = func() {
		if next == len(ops) {
			return
		}
		i, t := next, time.Now()
		next++
		d.issue(ops[i], func(info *namespace.Info, err error) {
			done(i, t, info, err)
			if left--; left == 0 {
				close(finished)
				return
			}
			issue()
		})
	}
	d.tr.Do(func() {
		for i := 0; i < inflight; i++ {
			issue()
		}
	})
	select {
	case <-finished:
		return nil
	case <-time.After(drainLimit):
		return fmt.Errorf("%d of %d ops unanswered after %v", left, len(ops), drainLimit)
	}
}

// runOpen calls post with the due times of every op scheduled at
// start + i/rate before end, batching all ops already due into one call.
// post blocks until the ops are issued (it wraps Transport.Do), so a stalled
// client loop makes the generator late; ops are timed from their due time,
// so that lateness lands in their latency.
func runOpen(start, end time.Time, rate float64, post func(due []time.Time)) {
	interval := time.Duration(float64(time.Second) / rate)
	var batch []time.Time
	for i := 0; ; {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		now := time.Now()
		batch = batch[:0]
		for ; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if due.After(now) || !due.Before(end) {
				break
			}
			batch = append(batch, due)
		}
		post(batch)
	}
}

// window is the measured phase's record. Fields are owned by the client
// loop except where noted.
type window struct {
	start, end time.Time // set before the loop sees the window

	creates, stats, late []float64 // ms
	attempted, failed    int
	sloMiss              int
	inflight, maxInfl    int
	acked                []op // acknowledged creates and mkdirs
	problems             []string
	stopped              bool // closed loop: issue no more

	killAt, firstAck time.Time // failover: kill instant, first ack of an op due after it
	lastAnswer       time.Time // when the window's last op answered

	spans *spanLog // nil when untraced
}

// issue sends o, timing it from due; issued is when the loop ran it.
func (w *window) issue(d *deployment, o op, due time.Time, after func()) {
	issued := time.Now()
	w.attempted++
	w.inflight++
	w.maxInfl = max(w.maxInfl, w.inflight)
	w.late = append(w.late, ms(issued.Sub(due)))
	d.issue(o, func(info *namespace.Info, err error) {
		w.finish(o, due, issued, info, err)
		if after != nil {
			after()
		}
	})
}

func (w *window) finish(o op, due, issued time.Time, info *namespace.Info, err error) {
	now := time.Now()
	w.inflight--
	w.lastAnswer = now
	lat := now.Sub(due)
	if err != nil || lat > sloLimit {
		w.sloMiss++
	}
	if err != nil {
		w.failed++
	} else {
		switch o.kind {
		case mams.OpCreate:
			w.creates = append(w.creates, ms(lat))
			w.acked = append(w.acked, o)
		case mams.OpMkdir:
			w.acked = append(w.acked, o)
		case mams.OpStat:
			w.stats = append(w.stats, ms(lat))
			if info == nil || info.Dir || info.Size != o.size {
				w.problems = append(w.problems, fmt.Sprintf("stat %s: got %+v, want size %d", o.path, info, o.size))
			}
		}
		if !w.killAt.IsZero() && w.firstAck.IsZero() && due.After(w.killAt) {
			w.firstAck = now
		}
	}
	if w.spans != nil {
		id := w.spans.add(0, "op", "client", due, now, "kind", o.kind.String())
		w.spans.add(id, "gen-wait", "client", due, issued)
		w.spans.add(id, "rpc", "client", issued, now)
	}
}

// wirePass is one booted deployment driven through one measured window.
type wirePass struct {
	spec   wireSpec
	traced bool
	d      *deployment
	w      *window

	// Sampler-owned until the window ends.
	active, victim int
	elected        time.Time
	waits          map[string]*series // loop wait (µs) per transport role
	rtt            series             // probe round trip (µs)
	lag            series             // standby lag (SNs)
}

// runWire boots setupRounds deployments, timing each, and measures
// spec.trials of them for an equal share of the window each.
func runWire(spec wireSpec, seed uint64, seconds int, traced bool) (*result, error) {
	trials := max(spec.trials, 1)
	length := time.Duration(seconds) * time.Second / time.Duration(trials)
	res := &result{}
	for r := 0; r < setupRounds; r++ {
		g := newGen(seed, spec.mix)
		preload := g.preload(preloadFiles)
		t0 := time.Now()
		d, err := boot(seed, preload)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if r < setupRounds-trials {
			d.close()
			continue
		}
		t, err := runTrial(spec, d, g, length, traced)
		d.close()
		if err != nil {
			return nil, err
		}
		res.trials = append(res.trials, t)
	}
	return res, nil
}

// runTrial drives one booted deployment through one measured window, then
// checks every acknowledged op.
func runTrial(spec wireSpec, d *deployment, g *gen, length time.Duration, traced bool) (*trial, error) {
	p := &wirePass{spec: spec, traced: traced, d: d, w: &window{}, victim: -1,
		waits: map[string]*series{}}
	for _, role := range loopRoles {
		p.waits[role] = &series{}
	}
	if traced {
		p.w.spans = &spanLog{}
	}
	if p.active = d.c.Active(); p.active < 0 {
		return nil, fmt.Errorf("no active before the window")
	}
	sn0, epoch0 := p.mdsState(p.active)
	p.settle()
	resetPeakRSS()
	sent0, dropped0 := p.frames()

	prof := startProfile(traced)
	rt0 := readRuntime()
	w := p.w
	w.start = time.Now()
	w.end = w.start.Add(length)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.control()
	}()
	if spec.rate > 0 {
		runOpen(w.start, w.end, spec.rate, func(due []time.Time) {
			d.tr.Do(func() {
				for _, t := range due {
					w.issue(d, g.next(), t, nil)
				}
			})
		})
	} else {
		var next func()
		next = func() {
			if !w.stopped {
				w.issue(d, g.next(), time.Now(), next)
			}
		}
		d.tr.Do(func() {
			for i := 0; i < spec.inflight; i++ {
				next()
			}
		})
		time.Sleep(time.Until(w.end))
		d.tr.Do(func() { w.stopped = true })
	}
	wg.Wait()
	if err := p.drain(); err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}

	// Everything below reads loop-owned state through Do.
	p.active = d.c.Active()
	if p.active < 0 {
		return nil, fmt.Errorf("no active after the window")
	}
	sn1, epoch1 := p.mdsState(p.active)
	sent1, dropped1 := p.frames()
	var retries int
	d.tr.Do(func() { retries = d.retries })
	if spec.kill && w.firstAck.IsZero() {
		w.problems = append(w.problems, "no op due after the kill was acknowledged")
	}

	// Rates count over the window plus its drain: on an open loop op count
	// over the window alone is fixed by the schedule.
	secs := w.lastAnswer.Sub(w.start).Seconds()
	ops := float64(w.attempted)
	t := &trial{
		creates:   w.creates,
		stats:     w.stats,
		window:    secs,
		statSecs:  secs,
		sloOK:     w.attempted - w.sloMiss,
		cpuUS:     us(rt1.cpu - rt0.cpu),
		memMB:     peakRSSMB(),
		attempted: w.attempted,
		failed:    w.failed,
		problems:  w.problems,
		layer:     map[string]float64{},
		spans:     w.spans,
	}
	l := t.layer
	l["nettrans.probe_rtt_p50_us"], l["nettrans.probe_rtt_p99_us"] = p.rtt.pcts()
	for _, role := range loopRoles {
		l["nettrans.loop_wait_p50_us."+role], l["nettrans.loop_wait_p99_us."+role] = p.waits[role].pcts()
	}
	l["nettrans.frames_per_op"] = float64(sent1-sent0) / ops
	l["nettrans.dropped"] = float64(dropped1 - dropped0)
	if sn1 > sn0 {
		l["mams.ops_per_batch"] = float64(len(w.acked)) / float64(sn1-sn0)
	}
	l["mams.standby_lag_sn_max"] = p.lag.max()
	l["mams.view_changes"] = float64(epoch1 - epoch0)
	if spec.kill && !w.firstAck.IsZero() {
		l["unavail_s"] = w.firstAck.Sub(w.killAt).Seconds()
		if !p.elected.IsZero() {
			l["failover.elect_s"] = p.elected.Sub(w.killAt).Seconds()
			l["failover.reconnect_s"] = w.firstAck.Sub(p.elected).Seconds()
			id := w.spans.add(0, "failover", "failover", w.killAt, w.firstAck)
			w.spans.add(id, "elect", "failover", w.killAt, p.elected)
			w.spans.add(id, "reconnect", "failover", p.elected, w.firstAck)
		}
	}
	l["slo_miss_ratio"] = float64(w.sloMiss) / ops
	l["fsclient.retries_per_op"] = float64(retries) / ops
	l["gen.late_p99_ms"], _ = percentile(w.late, 0.99)
	l["gen.inflight_max"] = float64(w.maxInfl)
	rt0.layer(rt1, ops, l)
	for k, v := range shares {
		l[k] = v
	}

	p.settle()
	if err := p.verify(t); err != nil {
		return nil, err
	}
	if spec.mix[mams.OpStat] == 0 {
		if err := p.measureStats(t, statPhase/time.Duration(max(spec.trials, 1))); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// loopRoles names the transports whose event-loop wait is probed.
var loopRoles = []string{"client", "active", "standby", "coord"}

// control is the one goroutine beside the generator: it kills the active on
// the failover workload and, in a traced run, probes the layers every
// sampleEvery.
func (p *wirePass) control() {
	w := p.w
	killAt := w.start.Add(time.Duration(killFrac * float64(w.end.Sub(w.start))))
	for now := time.Now(); now.Before(w.end); now = time.Now() {
		if p.spec.kill && p.victim < 0 && !now.Before(killAt) {
			p.kill()
			continue
		}
		next := w.end
		if p.traced {
			p.sample()
			next = now.Add(sampleEvery)
		}
		if p.spec.kill && p.victim < 0 && killAt.Before(next) {
			next = killAt
		}
		time.Sleep(time.Until(next))
	}
}

// kill closes the active's transport. In a traced run it then polls the
// survivors until one reports RoleActive: the election stage of Fig. 7.
func (p *wirePass) kill() {
	c := p.d.c
	p.d.tr.Do(func() { p.w.killAt = time.Now() })
	p.victim = c.KillActive()
	if !p.traced {
		return
	}
	deadline := time.Now().Add(drainLimit)
	for time.Now().Before(deadline) {
		for i, proc := range c.MDS {
			srv := c.Servers[i]
			var active bool
			if i != p.victim && proc.Tr.Do(func() { active = srv.Role() == mams.RoleActive }) && active {
				p.elected, p.active = time.Now(), i
				return
			}
		}
		time.Sleep(electPoll)
	}
}

// sample measures, from outside, how long a no-op Do waits on each loop,
// the standbys' lag behind the active, and one echo round trip to the
// active's transport.
func (p *wirePass) sample() {
	c := p.d.c
	var activeSN uint64
	srv := c.Servers[p.active]
	p.loopWait("active", c.MDS[p.active].Tr, func() { activeSN = srv.LastSN() })
	for i, proc := range c.MDS {
		if i == p.active || i == p.victim {
			continue
		}
		srv := c.Servers[i]
		var sn uint64
		if p.loopWait("standby", proc.Tr, func() { sn = srv.LastSN() }) && activeSN > sn {
			p.lag.add(float64(activeSN - sn))
		}
	}
	target := echoID(p.active)
	p.loopWait("client", p.d.tr, func() {
		t0 := time.Now()
		p.d.probe.Call(target, ping{}, sim.Second, func(_ any, err error) {
			if err == nil {
				p.rtt.add(us(time.Since(t0)))
				p.w.spans.add(0, "probe-rtt", "probe", t0, time.Now())
			}
		})
	})
	p.loopWait("coord", c.Coord[0].Tr, nil)
}

func (p *wirePass) loopWait(role string, tr *nettrans.Transport, fn func()) bool {
	t0 := time.Now()
	var ran time.Time
	ok := tr.Do(func() {
		ran = time.Now()
		if fn != nil {
			fn()
		}
	})
	if ok {
		p.waits[role].add(us(ran.Sub(t0)))
		p.w.spans.add(0, "loop-wait", role, t0, ran)
	}
	return ok
}

// mdsState reads member i's journal position and view epoch on its loop.
func (p *wirePass) mdsState(i int) (sn, epoch uint64) {
	srv := p.d.c.Servers[i]
	p.d.c.MDS[i].Tr.Do(func() { sn, epoch = srv.LastSN(), srv.View().Epoch })
	return
}

// frames sums Sent and Dropped over every transport. A killed transport's
// counters are read directly: Close has returned, so its loop has exited.
func (p *wirePass) frames() (sent, dropped uint64) {
	trs := []*nettrans.Transport{p.d.tr}
	for _, procs := range [][]testutil.Proc{p.d.c.Coord, p.d.c.MDS} {
		for _, proc := range procs {
			trs = append(trs, proc.Tr)
		}
	}
	for _, tr := range trs {
		var s, dr uint64
		if !tr.Do(func() { s, dr = tr.Sent, tr.Dropped }) {
			s, dr = tr.Sent, tr.Dropped
		}
		sent += s
		dropped += dr
	}
	return
}

// settle lets the deployment go quiet before a timed phase: every live
// standby has applied the active's journal, and the heap holds no garbage
// from the phase before and has returned it to the OS. A phase then neither
// pays for its predecessor nor inherits its peak RSS.
func (p *wirePass) settle() {
	for deadline := time.Now().Add(settleLimit); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		head, _ := p.mdsState(p.active)
		behind := false
		for i := range p.d.c.MDS {
			if sn, _ := p.mdsState(i); i != p.active && i != p.victim && sn < head {
				behind = true
			}
		}
		if !behind {
			break
		}
	}
	debug.FreeOSMemory()
}

// drain waits until every op issued in the window has answered.
func (p *wirePass) drain() error {
	deadline := time.Now().Add(drainLimit)
	for {
		var left int
		p.d.tr.Do(func() { left = p.w.inflight })
		if left == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d ops still unanswered %v after the window", left, drainLimit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// verify stats every acknowledged create and mkdir through the client: a
// missing entry is a lost acked op, a wrong size or type a corrupt one.
func (p *wirePass) verify(t *trial) error {
	err := p.statAcked(t, 0, len(p.w.acked), verifyInflight, nil)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

// measureStats gives a workload that issues no stats its stat metrics: for
// d it stats the acknowledged ops again, statInflight at a time, checking
// each answer as verify does.
func (p *wirePass) measureStats(t *trial, d time.Duration) error {
	var lat []float64
	n := len(p.w.acked)
	start := time.Now()
	for i := 0; time.Since(start) < d; {
		end := min(i+statChunk, n)
		if err := p.statAcked(t, i, end, statInflight, &lat); err != nil {
			return fmt.Errorf("stat phase: %w", err)
		}
		if i = end; i == n {
			i = 0
		}
	}
	t.stats = lat
	t.statSecs = time.Since(start).Seconds()
	return nil
}

// statAcked stats acknowledged ops [from, to), inflight at a time, adds
// what is wrong with each answer to t.problems and, when lat is not nil,
// appends each latency to it.
func (p *wirePass) statAcked(t *trial, from, to, inflight int, lat *[]float64) error {
	acked := p.w.acked[from:to]
	stats := make([]op, len(acked))
	for i, o := range acked {
		stats[i] = op{kind: mams.OpStat, path: o.path}
	}
	return p.d.pipeline(stats, inflight, func(i int, issued time.Time, info *namespace.Info, err error) {
		if lat != nil {
			*lat = append(*lat, ms(time.Since(issued)))
		}
		o := acked[i]
		switch {
		case err != nil || info == nil:
			t.problems = append(t.problems, fmt.Sprintf("acked %s %s lost: %v", o.kind, o.path, err))
		case o.kind == mams.OpMkdir && !info.Dir:
			t.problems = append(t.problems, fmt.Sprintf("acked mkdir %s is not a directory", o.path))
		case o.kind == mams.OpCreate && (info.Dir || info.Size != o.size):
			t.problems = append(t.problems, fmt.Sprintf("acked create %s: size %d, want %d", o.path, info.Size, o.size))
		}
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
