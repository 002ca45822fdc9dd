package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuClasses are the buckets a CPU profile's samples are split into.
var cpuClasses = []string{"gob", "net_syscall", "gc", "protocol", "sim", "other"}

// classOf names the class of one function, or "" when the function belongs
// to none (runtime helpers, the standard library) and the caller should look
// further up the stack.
func classOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.markroot"),
		strings.HasPrefix(fn, "runtime.scanobject"), strings.HasPrefix(fn, "runtime.bgsweep"),
		strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.sweepone"):
		return "gc"
	case strings.HasPrefix(fn, "encoding/gob."):
		return "gob"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/poll."),
		strings.HasPrefix(fn, "net."), strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "runtime/internal/syscall."):
		return "net_syscall"
	case strings.HasPrefix(fn, "mams/internal/sim."), strings.HasPrefix(fn, "mams/internal/simnet."):
		return "sim"
	case strings.HasPrefix(fn, "mams/internal/nettrans"), strings.HasPrefix(fn, "main."):
		return ""
	case strings.HasPrefix(fn, "mams/internal/"):
		return "protocol"
	}
	return ""
}

// classify assigns a stack (leaf first) to the class of its innermost
// classified frame: a malloc inside gob decoding is gob, a GC assist inside
// it is gc, a protocol handler run by the sim engine is protocol.
func classify(stack []string) string {
	for _, fn := range stack {
		if c := classOf(fn); c != "" {
			return c
		}
	}
	return "other"
}

// cpuProfile is a running CPU profile (a no-op when untraced).
type cpuProfile struct{ buf *bytes.Buffer }

func startProfile(on bool) cpuProfile {
	if !on {
		return cpuProfile{}
	}
	p := cpuProfile{buf: &bytes.Buffer{}}
	if err := pprof.StartCPUProfile(p.buf); err != nil {
		return cpuProfile{} // another profile is running: report no shares
	}
	return p
}

// stop ends the profile and returns each class's share of the samples as
// cpu.share.<class> metrics.
func (p cpuProfile) stop() (map[string]float64, error) {
	if p.buf == nil {
		return nil, nil
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[classify(s.funcs)] += s.count
		total += s.count
	}
	out := map[string]float64{}
	for _, c := range cpuClasses {
		if total > 0 {
			out["cpu.share."+c] = float64(counts[c]) / float64(total)
		}
	}
	return out, nil
}

// sample is one profile sample: its sample count and its stack, leaf first.
type sample struct {
	count int64
	funcs []string
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof writes,
// keeping only what classification needs: each sample's first value and the
// function names of its stack (inlined frames included, innermost first).
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strtab  []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		smp := sample{count: int64(s.values[0])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strtab)) {
					smp.funcs = append(smp.funcs, strtab[idx])
				}
			}
		}
		out = append(out, smp)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number and
// either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field in either encoding: one value
// (v, data nil) or a packed run (data).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// uvarint is binary.Uvarint with every failure reported as n == 0.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n < 0 {
		return 0, 0
	}
	return x, n
}
