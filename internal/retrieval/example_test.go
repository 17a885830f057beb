package retrieval_test

import (
	"fmt"

	"flashqos/internal/retrieval"
)

// Design-theoretic retrieval: initial mapping conflicts on device 0 are
// remapped onto alternate replicas.
func ExampleScheduler_Greedy() {
	replicas := [][]int{{0, 1, 2}, {0, 3, 6}, {0, 4, 8}}
	r := retrieval.NewScheduler().Greedy(replicas, 9)
	fmt.Println("accesses:", r.Accesses)
	// Output:
	// accesses: 1
}

// The combined algorithm of §III-C: greedy first, max-flow when greedy is
// above the ⌈b/N⌉ bound.
func ExampleOptimal() {
	replicas := [][]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}}
	r := retrieval.Optimal(replicas, 2)
	fmt.Println("accesses:", r.Accesses) // 4 blocks, 2 devices → 2 each
	// Output:
	// accesses: 2
}

// Online retrieval serves requests as they arrive on the earliest-free
// replica.
func ExampleOnline() {
	o := retrieval.NewOnline(9, 0.132507)
	c1 := o.Submit(0, []int{0, 1, 2})
	c2 := o.Submit(0, []int{0, 3, 6}) // device 0 busy: picks an idle one
	fmt.Println(c1.Device == c2.Device)
	fmt.Printf("%.6f %.6f\n", c1.Finish, c2.Finish)
	// Output:
	// false
	// 0.132507 0.132507
}
