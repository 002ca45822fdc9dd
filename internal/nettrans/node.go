package nettrans

import (
	"time"

	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/transport"
)

// netPending is one outstanding Call.
type netPending struct {
	cb    func(resp any, err error)
	timer *timer   // nil for zero-timeout calls
	conn  *outConn // the connection the request was queued on, if any
}

// Node is one endpoint hosted on a Transport. All methods are loop-only
// unless noted (use Transport.Do from outside); this matches the sim plane,
// where everything runs inside the single-threaded world.
type Node struct {
	id        transport.NodeID
	tr        *Transport
	handler   transport.Handler
	up        bool
	unplugged bool
	gen       uint64 // bumped on crash; invalidates timers and pending RPCs

	pending map[uint64]*netPending
	timers  map[*timer]struct{}
}

// ID returns the node's name. Safe from any goroutine.
func (nd *Node) ID() transport.NodeID { return nd.id }

// Transport returns the owning transport. Safe from any goroutine.
func (nd *Node) Transport() *Transport { return nd.tr }

// SetHandler installs (or replaces) the message handler.
func (nd *Node) SetHandler(h transport.Handler) { nd.handler = h }

// Up reports whether the node is accepting traffic.
func (nd *Node) Up() bool { return nd.up }

// Unplugged reports whether the node's I/O is disconnected.
func (nd *Node) Unplugged() bool { return nd.unplugged }

// Now returns the transport clock (wall-clock elapsed). Safe anywhere.
func (nd *Node) Now() sim.Time { return nd.tr.Now() }

// LocalNow equals Now: clock-skew injection is a sim-plane fault.
func (nd *Node) LocalNow() sim.Time { return nd.tr.Now() }

// Obs returns the transport's metrics registry (possibly nil).
func (nd *Node) Obs() *obs.Registry { return nd.tr.reg }

// Tracer returns the transport's span tracer (possibly nil).
func (nd *Node) Tracer() *obs.Tracer { return nd.tr.tracer }

// SetSlowdown is a sim-plane fault injection; a no-op on real hardware.
func (nd *Node) SetSlowdown(float64) {}

// SetClockSkew is a sim-plane fault injection; a no-op on real hardware.
func (nd *Node) SetClockSkew(float64) {}

// PendingCalls reports outstanding RPCs awaiting a callback.
func (nd *Node) PendingCalls() int { return len(nd.pending) }

// Send delivers a one-way message, fire-and-forget.
func (nd *Node) Send(to transport.NodeID, msg any) {
	nd.tr.sendFrame(frame{Kind: frameOneway, From: nd.id, To: to, Payload: msg})
}

// Call issues an RPC. cb runs exactly once on the loop: with the response;
// with transport.ErrTimeout after the deadline (or, for zero-timeout calls,
// as soon as the request is provably undeliverable); or never if this node
// crashes first.
func (nd *Node) Call(to transport.NodeID, req any, timeout sim.Time, cb func(resp any, err error)) {
	if !nd.up {
		return
	}
	nd.tr.nextCall++
	id := nd.tr.nextCall
	pc := &netPending{cb: cb}
	if timeout > 0 {
		gen := nd.gen
		pc.timer = nd.newTimer(timeout, func() {
			if nd.gen != gen || !nd.up {
				return
			}
			if p, ok := nd.pending[id]; ok && p == pc {
				delete(nd.pending, id)
				pc.cb(nil, transport.ErrTimeout)
			}
		})
	}
	nd.pending[id] = pc
	pc.conn = nd.tr.sendFrame(frame{Kind: frameRequest, ID: id, From: nd.id, To: to, Payload: req})
}

// failPending fails a provably-lost call that has no timeout timer armed
// (timer-armed calls keep their deadline semantics). Loop-only; the
// callback itself is re-posted so it never runs inside the failing send.
func (nd *Node) failPending(id uint64) {
	pc, ok := nd.pending[id]
	if !ok || pc.timer != nil {
		return
	}
	delete(nd.pending, id)
	gen := nd.gen
	nd.tr.post(func() {
		if nd.up && nd.gen == gen {
			pc.cb(nil, transport.ErrTimeout)
		}
	})
}

// After schedules fn on the loop after wall-clock d; it silently does not
// fire if the node crashes or restarts in the meantime.
func (nd *Node) After(d sim.Time, name string, fn func()) transport.Timer {
	_ = name // the sim plane uses names for deterministic trace labels
	gen := nd.gen
	return nd.newTimer(d, func() {
		if nd.up && nd.gen == gen {
			fn()
		}
	})
}

// Crash stops the node: timers die, pending RPC callbacks are dropped, and
// arriving frames are reaped at dispatch. The listener stays up — other
// nodes on the transport keep running (a crashed role inside a live
// process).
func (nd *Node) Crash() {
	if !nd.up {
		return
	}
	nd.up = false
	nd.gen++
	nd.pending = make(map[uint64]*netPending)
	for tm := range nd.timers {
		tm.Stop()
	}
	nd.timers = make(map[*timer]struct{})
}

// Restart brings the node back with a fresh generation; the caller is
// responsible for re-initialising handler state.
func (nd *Node) Restart() {
	if nd.up {
		return
	}
	nd.up = true
	nd.gen++
}

// Unplug makes the node's I/O go dark while it keeps running: inbound
// frames are dropped at dispatch, outbound frames at send.
func (nd *Node) Unplug() { nd.unplugged = true }

// Replug reconnects the node.
func (nd *Node) Replug() { nd.unplugged = false }

// ---- timers ----

// timer adapts time.AfterFunc to the transport loop and the
// transport.Timer interface. The callback hops onto the loop; stopped-ness
// is checked again there, so Stop() (called on the loop) wins any race
// against a concurrently-firing AfterFunc — the same guarantee sim timers
// give.
type timer struct {
	nd      *Node
	t       *time.Timer
	stopped bool
	fired   bool
}

// newTimer arms fn to run on the loop after d. Loop-only.
func (nd *Node) newTimer(d sim.Time, fn func()) *timer {
	tm := &timer{nd: nd}
	nd.timers[tm] = struct{}{}
	tm.t = time.AfterFunc(time.Duration(d), func() {
		nd.tr.post(func() {
			if tm.stopped || tm.fired {
				return
			}
			tm.fired = true
			delete(nd.timers, tm)
			fn()
		})
	})
	return tm
}

// Stop cancels the timer, reporting whether it was still pending.
// Loop-only (Close also calls it during teardown, after the loop exits).
func (tm *timer) Stop() bool {
	if tm.stopped || tm.fired {
		return false
	}
	tm.stopped = true
	tm.t.Stop()
	delete(tm.nd.timers, tm)
	return true
}

// Pending reports whether the callback has yet to run.
func (tm *timer) Pending() bool { return !tm.stopped && !tm.fired }
