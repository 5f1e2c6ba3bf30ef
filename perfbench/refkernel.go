package main

import (
	"math/rand"
	"sort"
	"time"
)

// refKernelMS is the median time of one refKernel call on the 2-vCPU VM
// the bounds in BENCHMARK.json were set on. The host-normalized metrics
// are scaled by refKernelMS over the run's own median (README.md,
// "Host-speed normalization").
const refKernelMS = 5.9

// refNode is a vertex of the reference kernel's random graph.
type refNode struct {
	id   int
	w    float64
	next []*refNode
}

// refSink keeps the kernel's result live.
var refSink float64

// refKernel times a fixed piece of work that uses no code of the
// repository: it allocates a seeded random graph, relaxes it (pointer
// chasing and float arithmetic), accumulates into a map and sorts the
// result — the kinds of work the simulator does — so that its time
// tracks the speed the host gives the process at that moment. It returns
// the time in milliseconds.
func refKernel() float64 {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < 4; r++ {
		nodes := make([]*refNode, 3000)
		for i := range nodes {
			nodes[i] = &refNode{id: i, w: rng.Float64()}
		}
		for _, n := range nodes {
			for j := 0; j < 4; j++ {
				n.next = append(n.next, nodes[rng.Intn(len(nodes))])
			}
		}
		acc := make(map[int]float64)
		for it := 0; it < 6; it++ {
			for _, n := range nodes {
				s := 0.0
				for _, x := range n.next {
					s += x.w * 0.25
				}
				n.w = 0.5*n.w + 0.5*s
				acc[n.id%997] += n.w
			}
		}
		vals := make([]float64, 0, len(acc))
		for _, v := range acc {
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		refSink += vals[0]
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
