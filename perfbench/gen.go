package main

import (
	"fmt"

	"mams/internal/mams"
	"mams/internal/rng"
	"mams/internal/workload"
)

// op is one generated metadata operation. The system under test receives
// only its kind, path and size; for a stat, size is the answer expected back.
type op struct {
	kind mams.OpKind
	path string
	size int64
}

// dirCount is how many directories the generated files spread over.
const dirCount = 16

func dirPath(i int) string { return fmt.Sprintf("/pb/d%02d", i) }

// gen draws a workload's operations from its seed: the same seed yields the
// same preload set and the same operation sequence. Not safe for concurrent
// use; each run draws from one goroutine at a time.
type gen struct {
	r       *rng.RNG
	kinds   []mams.OpKind
	weights []float64
	total   float64
	files   []op // preloaded files: the stat targets
	seq     int
}

func newGen(seed uint64, mix workload.Mix) *gen {
	g := &gen{r: rng.New(seed).Split("perfbench")}
	// Fixed kind order: map iteration order must not reach the draw.
	for _, k := range []mams.OpKind{mams.OpCreate, mams.OpMkdir, mams.OpStat} {
		if w := mix[k]; w > 0 {
			g.kinds = append(g.kinds, k)
			g.weights = append(g.weights, w)
			g.total += w
		}
	}
	return g
}

// preload draws n files to create before the measured window.
func (g *gen) preload(n int) []op {
	for i := 0; i < n; i++ {
		g.files = append(g.files, g.newFile())
	}
	return g.files
}

// name makes a path unique by sequence number; the random part lets seeds
// differ in directory and name, not only in order.
func (g *gen) name(prefix string) string {
	g.seq++
	return fmt.Sprintf("%s/%s%07d-%04x", dirPath(g.r.Intn(dirCount)), prefix, g.seq, g.r.Intn(1<<16))
}

func (g *gen) newFile() op {
	return op{kind: mams.OpCreate, path: g.name("f"), size: 1 + g.r.Int63n(1<<20)}
}

// next draws the next operation from the mix.
func (g *gen) next() op {
	u := g.r.Float64() * g.total
	kind := g.kinds[len(g.kinds)-1]
	for i, w := range g.weights {
		if u < w {
			kind = g.kinds[i]
			break
		}
		u -= w
	}
	switch {
	case kind == mams.OpStat && len(g.files) > 0:
		f := g.files[g.r.Intn(len(g.files))]
		return op{kind: mams.OpStat, path: f.path, size: f.size}
	case kind == mams.OpMkdir:
		return op{kind: mams.OpMkdir, path: g.name("s")}
	default:
		return g.newFile()
	}
}
