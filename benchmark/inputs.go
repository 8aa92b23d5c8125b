package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
)

// inputs derives everything a workload feeds the program from one seed:
// author handles, payload bytes, bootstrap entropy, the chaos profile
// seed and the simulator's seed list. The program under test receives
// only these generated inputs, never the seed or the workload's name.
type inputs struct {
	seed int64
}

// sub derives an independent 63-bit seed for a labelled purpose.
func (in *inputs) sub(label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", in.seed, label)
	return int64(h.Sum64() >> 1)
}

// entropy is the deterministic byte stream handed to BootstrapWithRand
// for one identity.
func (in *inputs) entropy(label string) io.Reader {
	return rand.New(rand.NewSource(in.sub("entropy/" + label)))
}

// handle names the i-th author of a kind ("history", "backlog", "fresh").
func (in *inputs) handle(kind string, i int) string {
	return fmt.Sprintf("%s-%d-%07d", kind, in.seed, i)
}

// payload is the body of the i-th post: n seeded bytes.
func (in *inputs) payload(i, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(in.sub(fmt.Sprintf("payload/%d", i)))).Read(b)
	return b
}
