package nettrans

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"mams/internal/journal"
	"mams/internal/mams"
	"mams/internal/namespace"
)

// Real protocol frames: a client stat and its reply, and a journal batch
// replicated from the active to a standby.
func statRequest(id uint64) frame {
	return frame{Kind: frameRequest, ID: id, From: "client0", To: "mds0",
		Payload: mams.ClientOp{ReqID: id, Kind: mams.OpStat, Path: "/d03/f0000042", MapEpoch: 1}}
}

func statReply(id uint64) frame {
	return frame{Kind: frameResponse, ID: id, From: "mds0", To: "client0",
		Payload: mams.OpReply{Info: &namespace.Info{Path: "/d03/f0000042", Name: "f0000042",
			Size: 1 << 20, Perm: 0o644, MTime: 12345, Blocks: []uint64{7, 8}}, Epoch: 3, DurableSN: 99}}
}

func journalBatch(sn uint64) frame {
	recs := make([]journal.Record, 8)
	for i := range recs {
		recs[i] = journal.Record{TxID: sn*8 + uint64(i), Op: journal.OpCreate,
			Path: "/d01/f000000" + string(rune('0'+i)), Size: 4096, Perm: 0o644, MTime: int64(sn)}
	}
	return frame{Kind: frameOneway, From: "mds0", To: "mds1", Payload: mams.AppendBatch{
		From: "mds0", Epoch: 3, CommitThrough: sn - 1,
		Batch: journal.Batch{SN: sn, Epoch: 3, FirstTx: sn * 8, Records: recs}}}
}

// encodeStream encodes fs on one fresh stream, as one connection direction
// would send them.
func encodeStream(t testing.TB, fs ...frame) []byte {
	w := newFrameWriter()
	for i := range fs {
		if err := w.append(&fs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.Clone(w.buf.Bytes())
}

func TestFrameStreamRoundTrip(t *testing.T) {
	want := []frame{statRequest(1), statReply(1), journalBatch(5), statRequest(2), {Kind: frameReap, ID: 3, From: "mds0", To: "client0"}}
	r := newFrameReader(bytes.NewReader(encodeStream(t, want...)))
	for i, w := range want {
		got, err := r.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, w)
		}
	}
}

// TestFrameTypeDescribedOnce pins the point of the per-connection stream:
// the first frame of a type carries its type descriptors, later frames of
// that type on the same connection do not.
func TestFrameTypeDescribedOnce(t *testing.T) {
	var wire bytes.Buffer
	w, r := newFrameWriter(), newFrameReader(&wire)
	send := func(f frame) int {
		if err := w.append(&f); err != nil {
			t.Fatal(err)
		}
		n := w.buf.Len()
		if err := w.flush(&wire); err != nil {
			t.Fatal(err)
		}
		got, err := r.next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("got %+v, want %+v", got, f)
		}
		return n
	}
	for _, mk := range []func(uint64) frame{statRequest, statReply, journalBatch} {
		first, second := send(mk(1)), send(mk(2))
		if second >= first {
			t.Errorf("%T: second frame %d bytes, first %d; want the second strictly smaller", mk(1).Payload, second, first)
		}
	}
}

// TestFrameAllocBudget bounds the codec's allocations for one stat round
// trip (request and response, encode and decode) on a warmed stream: 20
// allocations when measured, against about 570 for a fresh encoder and
// decoder per frame.
func TestFrameAllocBudget(t *testing.T) {
	var wire bytes.Buffer
	w, r := newFrameWriter(), newFrameReader(&wire)
	req, resp := statRequest(1), statReply(1)
	roundTrip := func(f *frame) {
		if err := w.append(f); err != nil {
			t.Fatal(err)
		}
		if err := w.flush(&wire); err != nil {
			t.Fatal(err)
		}
		if _, err := r.next(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		roundTrip(&req)
		roundTrip(&resp)
	})
	const budget = 24
	if avg > budget {
		t.Fatalf("stat round trip allocates %.1f objects, budget %d", avg, budget)
	}
}

func TestReadFrameRejects(t *testing.T) {
	good := encodeStream(t, statRequest(1))
	oversized := []byte{0x7f, 0xff, 0xff, 0xff}
	trailing := append(bytes.Clone(good), 0)
	binary.BigEndian.PutUint32(trailing, uint32(len(trailing)-4))
	truncated := good[:len(good)-1]
	for name, in := range map[string][]byte{"oversized": oversized, "trailing": trailing, "truncated": truncated} {
		if _, err := newFrameReader(bytes.NewReader(in)).next(); err == nil {
			t.Errorf("%s frame decoded without error", name)
		}
	}
}

// FuzzReadFrame feeds arbitrary byte streams to one connection's reader.
// Hostile input must end in an error, never a panic, and the body buffer
// must stay within maxFrame and within a chunk of what actually arrived.
func FuzzReadFrame(f *testing.F) {
	f.Add(encodeStream(f, statRequest(1)))
	f.Add(encodeStream(f, statReply(1)))
	f.Add(encodeStream(f, journalBatch(5)))
	f.Add(encodeStream(f, statRequest(1), statRequest(2), statReply(1), journalBatch(5), journalBatch(6)))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newFrameReader(bytes.NewReader(data))
		for {
			if _, err := r.next(); err != nil {
				break
			}
		}
		if c := cap(r.body); c > maxFrame || c > 2*len(data)+2*readChunk {
			t.Fatalf("body buffer grew to %d bytes on %d bytes of input", c, len(data))
		}
	})
}
