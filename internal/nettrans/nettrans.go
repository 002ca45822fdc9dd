// Package nettrans is the real-plane implementation of
// transport.Transport: TCP listeners on real addresses, length-prefixed gob
// framing, per-peer connection reuse, and wall-clock timers.
//
// One Transport corresponds to one OS process. It may host several nodes
// (mamsd can serve a metadata role, a pool role, and a coordination role
// from one process); all of them share a single TCP listener and a single
// event-loop goroutine. The loop serializes every handler invocation, timer
// callback, and Call completion — exactly the run-to-completion discipline
// the protocol state machines were written against on the sim plane, so
// they need no locks here either.
//
// Wire format: each frame is a 4-byte big-endian length followed by one gob
// value. Every connection direction is one long-lived gob stream, so a
// payload type is described and compiled once per connection, not once per
// frame; each frame is exactly one Encode call, so the descriptors it needs
// travel in the same frame. The connection is the unit of codec failure:
// any encode or decode error closes it, and the next send re-dials with
// fresh streams. Concrete payload types are registered with encoding/gob by
// the protocol packages' gobwire.go files.
//
// Loss semantics mirror simnet: one-way messages to unknown, down, or
// unplugged destinations vanish silently; requests that provably cannot
// complete (dial failure, write failure, dead or handler-less destination)
// fail the pending call with transport.ErrTimeout — immediately even for
// timeout == 0 calls, the same pending-leak guarantee the sim plane makes.
package nettrans

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"mams/internal/obs"
	"mams/internal/sim"
	"mams/internal/transport"
)

// Compile-time plane checks.
var (
	_ transport.Transport = (*Transport)(nil)
	_ transport.Node      = (*Node)(nil)
	_ transport.Timer     = (*timer)(nil)
)

type frameKind uint8

const (
	frameOneway frameKind = iota
	frameRequest
	frameResponse
	// frameReap tells the caller that its request id will never be
	// answered (destination down, unknown, or not serving RPCs). It is the
	// wire form of simnet's reapDropped and is what keeps zero-timeout
	// calls from leaking.
	frameReap
)

// frame is the unit of exchange. From/To are node ids, not addresses; ID
// matches responses (and reaps) to pending calls.
type frame struct {
	Kind    frameKind
	ID      uint64
	From    transport.NodeID
	To      transport.NodeID
	Payload any
}

// AddrBook maps node ids to "host:port" addresses. It is safe for
// concurrent use; TestCluster fills it as listeners come up, mamsd loads it
// from config.
type AddrBook struct {
	mu sync.RWMutex
	m  map[transport.NodeID]string
}

// NewAddrBook returns an empty address book.
func NewAddrBook() *AddrBook { return &AddrBook{m: make(map[transport.NodeID]string)} }

// Set binds id to addr.
func (b *AddrBook) Set(id transport.NodeID, addr string) {
	b.mu.Lock()
	b.m[id] = addr
	b.mu.Unlock()
}

// Lookup resolves id.
func (b *AddrBook) Lookup(id transport.NodeID) (string, bool) {
	b.mu.RLock()
	addr, ok := b.m[id]
	b.mu.RUnlock()
	return addr, ok
}

// Config parameterizes a Transport.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Book resolves destination node ids to addresses. Required.
	Book *AddrBook
	// DialTimeout bounds outbound connection establishment (default 2s).
	DialTimeout time.Duration
}

// Transport is one process's endpoint set. See the package comment.
type Transport struct {
	book        *AddrBook
	dialTimeout time.Duration

	ln net.Listener
	t0 time.Time

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool

	// nodes maps hosted ids to their endpoints. Registration may happen
	// from any goroutine (including from inside the loop, mid-Do, when a
	// composite server constructs sub-clients), so the map has its own
	// lock; each Node's *state* remains loop-owned.
	nmu   sync.RWMutex
	nodes map[transport.NodeID]*Node

	// Loop-owned state (touch only from run()).
	conns    map[string]*outConn // outbound, keyed by address
	nextCall uint64
	reg      *obs.Registry
	tracer   *obs.Tracer

	// Inbound connections, owned by their reader goroutines; tracked under
	// inMu only so Close can unblock readers whose peers outlive us.
	inMu    sync.Mutex
	inConns map[net.Conn]struct{}

	// Stats mirror simnet.Network's counters (loop-owned).
	Sent      uint64
	Delivered uint64
	Dropped   uint64

	wg       sync.WaitGroup
	loopDone chan struct{} // closed when run returns
}

// New opens the listener and starts the event loop. The caller should
// publish Addr() in the address book under its node ids.
func New(cfg Config) (*Transport, error) {
	if cfg.Book == nil {
		return nil, errors.New("nettrans: Config.Book is required")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("nettrans: listen %s: %w", cfg.Addr, err)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	t := &Transport{
		book:        cfg.Book,
		dialTimeout: cfg.DialTimeout,
		ln:          ln,
		t0:          time.Now(),
		nodes:       make(map[transport.NodeID]*Node),
		conns:       make(map[string]*outConn),
		inConns:     make(map[net.Conn]struct{}),
		loopDone:    make(chan struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	t.wg.Add(2)
	go t.run()
	go t.accept()
	return t, nil
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// SetObs attaches a metrics registry and span tracer (both optional). Call
// before serving traffic; the attachments are read from the loop only.
func (t *Transport) SetObs(reg *obs.Registry, tracer *obs.Tracer) {
	t.Do(func() { t.reg, t.tracer = reg, tracer })
}

// Obs returns the attached metrics registry (possibly nil).
func (t *Transport) Obs() *obs.Registry { return t.reg }

// Tracer returns the attached span tracer (possibly nil).
func (t *Transport) Tracer() *obs.Tracer { return t.tracer }

// post enqueues fn for the event loop. Safe from any goroutine; a no-op
// after Close.
func (t *Transport) post(fn func()) {
	t.mu.Lock()
	if !t.closed {
		t.queue = append(t.queue, fn)
		t.cond.Signal()
	}
	t.mu.Unlock()
}

// Do runs fn on the event loop and waits for it to finish — the bridge for
// code outside the loop (tests, benchmark drivers, mamsd signal handlers).
// Returns false if the transport is closed.
func (t *Transport) Do(fn func()) bool {
	done := make(chan struct{})
	posted := false
	t.mu.Lock()
	if !t.closed {
		t.queue = append(t.queue, func() { fn(); close(done) })
		t.cond.Signal()
		posted = true
	}
	t.mu.Unlock()
	if posted {
		<-done
	}
	return posted
}

// run is the event loop: one callback at a time, in arrival order.
func (t *Transport) run() {
	defer t.wg.Done()
	defer close(t.loopDone)
	for {
		t.mu.Lock()
		for len(t.queue) == 0 && !t.closed {
			t.cond.Wait()
		}
		if t.closed {
			t.mu.Unlock()
			return
		}
		fn := t.queue[0]
		t.queue = t.queue[1:]
		t.mu.Unlock()
		fn()
	}
}

// Close stops the listener, all connections, timers, and the loop, then
// waits for every goroutine the transport started. Idempotent.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return
	}
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
	t.ln.Close()
	// Connection teardown: outConns and timers are loop-owned, so wait for
	// the loop's last callback to finish; after that they are safe to walk
	// (post and Do are no-ops now that closed is set, so nothing new can
	// appear).
	<-t.loopDone
	for _, c := range t.conns {
		c.close()
	}
	t.inMu.Lock()
	for c := range t.inConns {
		c.Close()
	}
	t.inMu.Unlock()
	t.nmu.RLock()
	for _, nd := range t.nodes {
		for tm := range nd.timers {
			tm.Stop()
		}
	}
	t.nmu.RUnlock()
	t.wg.Wait()
}

// Now returns wall-clock time elapsed since the transport started, as
// sim.Time so protocol constants carry over unchanged.
func (t *Transport) Now() sim.Time { return sim.Time(time.Since(t.t0)) }

// Listen registers a node. Panics on duplicate ids (a wiring bug), matching
// the sim plane. Callable from any goroutine, including the loop itself.
func (t *Transport) Listen(id transport.NodeID, h transport.Handler) transport.Node {
	nd := &Node{
		id: id, tr: t, handler: h, up: true,
		pending: make(map[uint64]*netPending),
		timers:  make(map[*timer]struct{}),
	}
	t.nmu.Lock()
	defer t.nmu.Unlock()
	if _, dup := t.nodes[id]; dup {
		panic(fmt.Sprintf("nettrans: duplicate node %q", id))
	}
	t.nodes[id] = nd
	return nd
}

// node looks up a hosted endpoint.
func (t *Transport) node(id transport.NodeID) *Node {
	t.nmu.RLock()
	nd := t.nodes[id]
	t.nmu.RUnlock()
	return nd
}

// ---- outbound connections ----

// outConn is a reusable outbound connection to one address. The writer
// goroutine dials lazily, then drains the queue; a reader goroutine takes the
// responses and reaps that come back. Any error on either side fails the
// whole connection: queued frames are undeliverable, zero-timeout calls
// written on it fail, and the next send re-dials with fresh gob streams.
type outConn struct {
	tr   *Transport
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []frame
	closed bool

	netConn net.Conn // set by the writer once dialed (guarded by mu)
}

func (c *outConn) close() {
	c.mu.Lock()
	c.closed = true
	if c.netConn != nil {
		c.netConn.Close()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// enqueue hands a frame to the writer.
func (c *outConn) enqueue(f frame) {
	c.mu.Lock()
	if !c.closed {
		c.queue = append(c.queue, f)
		c.cond.Signal()
	} else {
		c.mu.Unlock()
		c.tr.post(func() { c.tr.frameUndeliverable(f) })
		return
	}
	c.mu.Unlock()
}

// write runs in its own goroutine: dial once, then encode each wake-up's
// whole queue onto the connection's gob stream and send it in one Write.
func (c *outConn) write() {
	defer c.tr.wg.Done()
	conn, err := net.DialTimeout("tcp", c.addr, c.tr.dialTimeout)
	if err != nil {
		c.fail(nil)
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.netConn = conn
	c.mu.Unlock()
	// Responses and reaps come back on this same connection. The reader
	// also closes the conn when the peer goes away, which trips the writer
	// out of its queue wait.
	c.tr.wg.Add(1)
	go c.tr.read(conn, c)
	fw := newFrameWriter()
	var batch []frame
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		// Swap the queue with the drained batch's backing array.
		batch, c.queue = c.queue, batch[:0]
		c.mu.Unlock()
		for i := range batch {
			if err := fw.append(&batch[i]); err != nil {
				// The stream is undefined past a failed Encode: send the
				// frames encoded before it, then give up the connection.
				_ = fw.flush(conn)
				conn.Close()
				c.fail(batch[i:])
				return
			}
		}
		if err := fw.flush(conn); err != nil {
			conn.Close()
			c.fail(batch)
			return
		}
		clear(batch) // drop payload references until the next reuse
	}
}

// fail marks the connection dead and, on the loop, removes it from the
// transport's reuse map so the next send re-dials, reaps lost frames plus
// everything still queued, and fails the zero-timeout calls whose requests
// were queued on or written to it. Safe to call more than once.
func (c *outConn) fail(lost []frame) {
	c.mu.Lock()
	c.closed = true
	stranded := append(lost, c.queue...)
	c.queue = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	c.tr.post(func() {
		t := c.tr
		if t.conns[c.addr] == c {
			delete(t.conns, c.addr)
		}
		for _, f := range stranded {
			t.frameUndeliverable(f)
		}
		t.nmu.RLock()
		defer t.nmu.RUnlock()
		for _, nd := range t.nodes {
			for id, pc := range nd.pending {
				if pc.conn == c {
					nd.failPending(id)
				}
			}
		}
	})
}

// connTo returns (dialing if needed) the reusable connection to addr.
// Loop-only.
func (t *Transport) connTo(addr string) *outConn {
	if c := t.conns[addr]; c != nil {
		c.mu.Lock()
		dead := c.closed
		c.mu.Unlock()
		if !dead {
			return c
		}
		delete(t.conns, addr)
	}
	c := &outConn{tr: t, addr: addr}
	c.cond = sync.NewCond(&c.mu)
	t.conns[addr] = c
	t.wg.Add(1)
	go c.write()
	return c
}

// frameUndeliverable applies loss semantics to a frame that provably did
// not reach its destination: requests fail the caller's pending entry,
// responses and reaps fail the callee-side nothing (the caller times out),
// oneways vanish. Loop-only.
func (t *Transport) frameUndeliverable(f frame) {
	t.Dropped++
	if f.Kind != frameRequest {
		return
	}
	if src := t.node(f.From); src != nil {
		src.failPending(f.ID)
	}
}

// sendFrame routes a frame: local fast path for co-hosted destinations
// (still asynchronous — enqueued back onto the loop, never run inline),
// otherwise the reusable outbound connection. It returns the connection the
// frame was queued on, or nil if it went local or was dropped. Loop-only.
func (t *Transport) sendFrame(f frame) *outConn {
	t.Sent++
	if src := t.node(f.From); src != nil && (!src.up || src.unplugged) {
		t.frameUndeliverable(f)
		return nil
	}
	if local := t.node(f.To); local != nil {
		t.post(func() { t.dispatch(f, nil) })
		return nil
	}
	addr, ok := t.book.Lookup(f.To)
	if !ok {
		t.frameUndeliverable(f)
		return nil
	}
	c := t.connTo(addr)
	c.enqueue(f)
	return c
}

// ---- inbound ----

func (t *Transport) accept() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.read(conn, nil)
	}
}

// read decodes frames off one connection and posts them to the loop. An
// inbound connection (out == nil) doubles as the response path for the
// requests that arrived on it; an outbound connection carries back the
// responses and reaps to our requests, and the reader's exit fails it. Any
// decode error ends the connection.
func (t *Transport) read(conn net.Conn, out *outConn) {
	defer t.wg.Done()
	defer conn.Close()
	var w *inWriter
	if out == nil {
		t.inMu.Lock()
		t.inConns[conn] = struct{}{}
		t.inMu.Unlock()
		defer func() {
			t.inMu.Lock()
			delete(t.inConns, conn)
			t.inMu.Unlock()
		}()
		w = &inWriter{conn: conn, fw: newFrameWriter()}
	} else {
		defer out.fail(nil)
	}
	fr := newFrameReader(conn)
	for {
		f, err := fr.next()
		if err != nil {
			return // peer closed, tore down mid-frame, or sent garbage
		}
		t.post(func() { t.dispatch(f, w) })
	}
}

// inWriter serializes response writes back onto an inbound connection.
// reply closures may fire long after the handler returned, from the loop;
// the mutex orders them against each other and owns the connection's
// response stream.
type inWriter struct {
	mu   sync.Mutex
	conn net.Conn
	fw   *frameWriter
	dead bool
}

// write encodes and sends one response or reap. Any error closes the
// connection: the caller's reader sees it and fails the calls written on
// it, and its next send re-dials.
func (w *inWriter) write(f frame) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return
	}
	err := w.fw.append(&f)
	if err == nil {
		err = w.fw.flush(w.conn)
	}
	if err != nil {
		w.dead = true
		w.conn.Close()
	}
}

// dispatch delivers an arrived frame to the destination node. Loop-only.
// via is the inbound connection for remote frames (responses to requests
// that arrived on it go back the same way); nil for local fast-path frames,
// which answer through sendFrame instead.
func (t *Transport) dispatch(f frame, via *inWriter) {
	dst := t.node(f.To)
	if dst == nil || !dst.up || dst.unplugged {
		t.Dropped++
		// Requests get a reap so the caller learns immediately; responses
		// and reaps for a dead or unknown node just vanish (the pending
		// entry died with the node, or times out on a remote caller).
		if f.Kind == frameRequest {
			t.reapBack(f, via)
		}
		return
	}
	switch f.Kind {
	case frameOneway:
		t.Delivered++
		if dst.handler != nil {
			dst.handler.HandleMessage(f.From, f.Payload)
		}
	case frameRequest:
		rh, ok := dst.handler.(transport.RequestHandler)
		if !ok {
			t.Dropped++
			t.reapBack(f, via)
			return
		}
		t.Delivered++
		replied := false
		gen := dst.gen
		resp := frame{Kind: frameResponse, ID: f.ID, From: f.To, To: f.From}
		rh.HandleRequest(f.From, f.Payload, func(r any) {
			if replied {
				panic("nettrans: reply invoked twice")
			}
			replied = true
			if dst.gen != gen || !dst.up || dst.unplugged {
				return // we crashed or went dark since receiving the request
			}
			resp.Payload = r
			t.answer(resp, via)
		})
	case frameResponse, frameReap:
		pc, ok := dst.pending[f.ID]
		if !ok {
			return // late response after timeout or crash
		}
		delete(dst.pending, f.ID)
		if pc.timer != nil {
			pc.timer.Stop()
		}
		if f.Kind == frameReap {
			t.Dropped++
			pc.cb(nil, transport.ErrTimeout)
			return
		}
		t.Delivered++
		pc.cb(f.Payload, nil)
	}
}

// reapBack tells the caller its request will never complete (the wire form
// of simnet's reapDropped). Loop-only.
func (t *Transport) reapBack(f frame, via *inWriter) {
	t.answer(frame{Kind: frameReap, ID: f.ID, From: f.To, To: f.From}, via)
}

// answer routes a response or reap frame back to the caller: over the
// inbound connection it arrived on when there is one, through normal
// routing for local fast-path traffic. Loop-only.
func (t *Transport) answer(f frame, via *inWriter) {
	if via == nil {
		t.sendFrame(f)
		return
	}
	t.Sent++
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		via.write(f)
	}()
}

// ---- framing ----

const (
	maxFrame = 64 << 20 // 64 MiB; journals ship in bounded batches
	// readChunk bounds how far a frame body's buffer grows ahead of the
	// bytes that have actually arrived, so a hostile length prefix cannot
	// make the reader allocate maxFrame up front.
	readChunk = 64 << 10
	// keepBuf is the largest frame buffer a connection holds on to between
	// frames; a rare larger frame gets a buffer of its own.
	keepBuf = 1 << 20
)

// frameWriter is one connection direction's gob stream. Each frame is a
// 4-byte big-endian length followed by exactly one Encode call, so a type
// is described once per connection, and the descriptors a frame needs
// travel in that same frame. After an error the stream is undefined and
// the connection must be dropped.
type frameWriter struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

func newFrameWriter() *frameWriter {
	w := &frameWriter{}
	w.enc = gob.NewEncoder(&w.buf)
	return w
}

// append encodes f behind its length prefix. On error the buffer keeps
// only the frames appended before f.
func (w *frameWriter) append(f *frame) error {
	mark := w.buf.Len()
	w.buf.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := w.enc.Encode(f); err != nil {
		w.buf.Truncate(mark)
		return fmt.Errorf("nettrans: encode frame to %s: %w", f.To, err)
	}
	n := w.buf.Len() - mark - 4
	if n > maxFrame {
		w.buf.Truncate(mark)
		return fmt.Errorf("nettrans: frame to %s is %d bytes, over the %d limit", f.To, n, maxFrame)
	}
	binary.BigEndian.PutUint32(w.buf.Bytes()[mark:], uint32(n))
	return nil
}

// flush sends every appended frame in one Write and empties the buffer.
func (w *frameWriter) flush(conn io.Writer) error {
	_, err := conn.Write(w.buf.Bytes())
	w.buf.Reset()
	if w.buf.Cap() > keepBuf {
		w.buf = bytes.Buffer{}
	}
	return err
}

// frameReader is one connection's decoding side: it reads each
// length-prefixed body into a reused buffer and decodes it with the
// connection's long-lived gob.Decoder.
type frameReader struct {
	src  io.Reader
	hdr  [4]byte
	body []byte
	rd   bytes.Reader // the decoder's input: the current frame's body
	dec  *gob.Decoder
}

func newFrameReader(src io.Reader) *frameReader {
	r := &frameReader{src: src}
	// bytes.Reader is an io.ByteReader, so the decoder reads it directly
	// and never buffers past the current frame.
	r.dec = gob.NewDecoder(&r.rd)
	return r
}

// next reads and decodes one frame. A frame must hold exactly one gob
// value (with any type descriptors it needs); trailing bytes are an error.
func (r *frameReader) next() (frame, error) {
	if _, err := io.ReadFull(r.src, r.hdr[:]); err != nil {
		return frame{}, err
	}
	n := int(binary.BigEndian.Uint32(r.hdr[:]))
	if n > maxFrame {
		return frame{}, fmt.Errorf("nettrans: oversized frame (%d bytes)", n)
	}
	if cap(r.body) > keepBuf {
		r.body = nil
	}
	body := r.body[:0]
	for len(body) < n {
		chunk := min(n-len(body), readChunk)
		body = slices.Grow(body, chunk)
		m, err := io.ReadFull(r.src, body[len(body):len(body)+chunk])
		body = body[:len(body)+m]
		if err != nil {
			r.body = body
			return frame{}, err
		}
	}
	r.body = body
	r.rd.Reset(body)
	var f frame
	if err := r.dec.Decode(&f); err != nil {
		return frame{}, fmt.Errorf("nettrans: decode frame: %w", err)
	}
	if r.rd.Len() != 0 {
		return frame{}, fmt.Errorf("nettrans: %d trailing bytes in frame", r.rd.Len())
	}
	return f, nil
}
