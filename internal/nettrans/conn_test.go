package nettrans

import (
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"mams/internal/sim"
	"mams/internal/transport"
)

type testPing struct{ N int }
type testPong struct{ N int }

// notOnTheWire is deliberately left unregistered with gob.
type notOnTheWire struct{ N int }

func init() {
	gob.Register(testPing{})
	gob.Register(testPong{})
}

// funcHandler answers requests with fn.
type funcHandler func(req any, reply func(any))

func (funcHandler) HandleMessage(transport.NodeID, any) {}
func (h funcHandler) HandleRequest(_ transport.NodeID, req any, reply func(any)) {
	h(req, reply)
}

// pair starts transports a and b, each hosting the node of the same name.
func pair(t *testing.T) (a, b *Transport, na transport.Node) {
	t.Helper()
	book := NewAddrBook()
	var err error
	if a, err = New(Config{Addr: "127.0.0.1:0", Book: book}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	if b, err = New(Config{Addr: "127.0.0.1:0", Book: book}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	book.Set("a", a.Addr())
	book.Set("b", b.Addr())
	return a, b, a.Listen("a", nil)
}

// call issues a Call from n on its transport and returns the result.
func call(t *testing.T, tr *Transport, n transport.Node, req any, timeout sim.Time) (any, error) {
	t.Helper()
	type result struct {
		resp any
		err  error
	}
	done := make(chan result, 1)
	tr.Do(func() {
		n.Call("b", req, timeout, func(resp any, err error) { done <- result{resp, err} })
	})
	select {
	case r := <-done:
		return r.resp, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("call never completed")
		return nil, nil
	}
}

// A zero-timeout call already written on a connection must fail when the
// connection dies, and the dead connection must leave the reuse map.
func TestZeroTimeoutCallFailsWhenConnDies(t *testing.T) {
	arrived := make(chan struct{}, 1)
	a, b, na := pair(t)
	b.Listen("b", funcHandler(func(any, func(any)) { arrived <- struct{}{} }))
	go func() {
		<-arrived // the request is on the wire; the callee never replies
		b.Close()
	}()
	if _, err := call(t, a, na, testPing{1}, 0); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	a.Do(func() {
		if n := len(a.conns); n != 0 {
			t.Errorf("%d dead connections still cached", n)
		}
	})
}

// A reply that cannot be encoded closes the inbound connection: the caller
// fails fast, and its next call succeeds on a fresh connection.
func TestResponseEncodeErrorClosesConn(t *testing.T) {
	first := true
	a, b, na := pair(t)
	b.Listen("b", funcHandler(func(req any, reply func(any)) {
		if first {
			first = false
			reply(notOnTheWire{})
			return
		}
		reply(testPong{req.(testPing).N})
	}))
	var before *outConn
	if _, err := call(t, a, na, testPing{1}, 0); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("unencodable reply: err = %v, want ErrTimeout", err)
	}
	a.Do(func() { before = a.conns[b.Addr()] })
	resp, err := call(t, a, na, testPing{2}, 5*sim.Second)
	if err != nil || resp != (testPong{2}) {
		t.Fatalf("call after encode error = %v, %v; want testPong{2}", resp, err)
	}
	a.Do(func() {
		if c := a.conns[b.Addr()]; c == nil || c == before {
			t.Errorf("second call did not run on a fresh connection")
		}
	})
}
