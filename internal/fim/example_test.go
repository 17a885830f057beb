package fim_test

import (
	"fmt"

	"flashqos/internal/fim"
)

// Mining frequent pairs from co-occurrence transactions (§IV-A).
func ExampleMinePairs() {
	txs := []fim.Transaction{
		{1, 2}, {1, 2}, {1, 2}, {1, 3}, {2, 3},
	}
	pairs := fim.MinePairs(txs, 2)
	for _, p := range pairs {
		fmt.Printf("(%d,%d) support %d\n", p.A, p.B, p.Support)
	}
	// Output:
	// (1,2) support 3
}

// Frequent itemsets of every size up to 3, smallest first.
func ExampleApriori() {
	txs := []fim.Transaction{{1, 2, 3}, {1, 2}, {2, 3}, {1, 2, 3}}
	a := fim.Apriori(txs, 2, 3)
	fmt.Println(len(a))
	fmt.Println(a[len(a)-1].Items, a[len(a)-1].Support)
	// Output:
	// 7
	// [1 2 3] 2
}
