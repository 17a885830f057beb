package fim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"flashqos/internal/trace"
)

// classic transactions: the textbook market-basket example.
func marketBasket() []Transaction {
	return []Transaction{
		{1, 2, 5},
		{2, 4},
		{2, 3},
		{1, 2, 4},
		{1, 3},
		{2, 3},
		{1, 3},
		{1, 2, 3, 5},
		{1, 2, 3},
	}
}

func TestMinePairsMarketBasket(t *testing.T) {
	pairs := MinePairs(marketBasket(), 2)
	want := map[[2]int64]int{
		{1, 2}: 4, {1, 3}: 4, {2, 3}: 4, {1, 5}: 2, {2, 5}: 2, {2, 4}: 2,
	}
	if len(pairs) != len(want) {
		t.Fatalf("got %d pairs, want %d: %+v", len(pairs), len(want), pairs)
	}
	for _, p := range pairs {
		if want[[2]int64{p.A, p.B}] != p.Support {
			t.Errorf("pair (%d,%d) support %d, want %d", p.A, p.B, p.Support, want[[2]int64{p.A, p.B}])
		}
		if p.A >= p.B {
			t.Errorf("pair (%d,%d) not ordered", p.A, p.B)
		}
	}
	// Sorted by descending support.
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Support > pairs[i-1].Support {
			t.Error("pairs not sorted by support")
		}
	}
}

func TestMinePairsMinSupportPrunes(t *testing.T) {
	pairs := MinePairs(marketBasket(), 3)
	if len(pairs) != 3 {
		t.Fatalf("minsup=3: got %d pairs, want 3", len(pairs))
	}
	for _, p := range pairs {
		if p.Support < 3 {
			t.Errorf("pair %+v below min support", p)
		}
	}
}

func TestMinePairsEmpty(t *testing.T) {
	if got := MinePairs(nil, 1); got != nil {
		t.Errorf("empty input: %v", got)
	}
	if got := MinePairs([]Transaction{{1}}, 1); got != nil {
		t.Errorf("single-item transactions have no pairs: %v", got)
	}
}

func TestAprioriMarketBasket(t *testing.T) {
	sets := Apriori(marketBasket(), 2, 3)
	// Known L1 supports: 1:6 2:7 3:6 4:2 5:2
	bySize := map[int][]Itemset{}
	for _, s := range sets {
		bySize[len(s.Items)] = append(bySize[len(s.Items)], s)
		if s.Support < 2 {
			t.Errorf("itemset %+v below min support", s)
		}
	}
	if len(bySize[1]) != 5 {
		t.Errorf("L1 size %d, want 5", len(bySize[1]))
	}
	if len(bySize[2]) != 6 {
		t.Errorf("L2 size %d, want 6", len(bySize[2]))
	}
	// L3: {1,2,3}:2 and {1,2,5}:2.
	if len(bySize[3]) != 2 {
		t.Errorf("L3 size %d, want 2: %+v", len(bySize[3]), bySize[3])
	}
}

func TestAprioriMatchesPairMiner(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var txs []Transaction
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(6)
		seen := map[int64]bool{}
		var tx Transaction
		for j := 0; j < n; j++ {
			v := int64(rng.Intn(30))
			if !seen[v] {
				seen[v] = true
				tx = append(tx, v)
			}
		}
		sortTx(tx)
		txs = append(txs, tx)
	}
	for _, minsup := range []int{1, 2, 5, 10} {
		pairs := MinePairs(txs, minsup)
		apr := Apriori(txs, minsup, 2)
		aprPairs := map[[2]int64]int{}
		for _, s := range apr {
			if len(s.Items) == 2 {
				aprPairs[[2]int64{s.Items[0], s.Items[1]}] = s.Support
			}
		}
		if len(pairs) != len(aprPairs) {
			t.Fatalf("minsup %d: MinePairs %d vs Apriori %d", minsup, len(pairs), len(aprPairs))
		}
		for _, p := range pairs {
			if aprPairs[[2]int64{p.A, p.B}] != p.Support {
				t.Fatalf("minsup %d: support mismatch for (%d,%d)", minsup, p.A, p.B)
			}
		}
	}
}

func sortTx(tx Transaction) {
	for i := range tx {
		for j := i + 1; j < len(tx); j++ {
			if tx[j] < tx[i] {
				tx[i], tx[j] = tx[j], tx[i]
			}
		}
	}
}

// bruteForceItemsets is the reference Apriori is checked against: it counts
// every subset of every transaction up to maxSize items, then orders the
// frequent ones by size and lexicographically, as Apriori does.
func bruteForceItemsets(txs []Transaction, minSupport, maxSize int) []Itemset {
	count := map[string]int{}
	items := map[string][]int64{}
	for _, tx := range txs {
		for mask := 1; mask < 1<<len(tx); mask++ {
			if bits.OnesCount(uint(mask)) > maxSize {
				continue
			}
			var set []int64
			for i, it := range tx {
				if mask&(1<<i) != 0 {
					set = append(set, it)
				}
			}
			key := fmt.Sprint(set)
			count[key]++
			items[key] = set
		}
	}
	var out []Itemset
	for key, c := range count {
		if c >= minSupport {
			out = append(out, Itemset{Items: items[key], Support: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Items, out[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// randomTransactions draws count transactions of 1..maxLen distinct items
// from [0, universe), each sorted.
func randomTransactions(rng *rand.Rand, count, maxLen, universe int) []Transaction {
	var txs []Transaction
	for i := 0; i < count; i++ {
		n := 1 + rng.Intn(maxLen)
		seen := map[int64]bool{}
		var tx Transaction
		for j := 0; j < n; j++ {
			v := int64(rng.Intn(universe))
			if !seen[v] {
				seen[v] = true
				tx = append(tx, v)
			}
		}
		sortTx(tx)
		txs = append(txs, tx)
	}
	return txs
}

func checkAprioriBruteForce(t *testing.T, txs []Transaction, minsups, maxSizes []int) {
	t.Helper()
	for _, minsup := range minsups {
		for _, maxSize := range maxSizes {
			got := Apriori(txs, minsup, maxSize)
			want := bruteForceItemsets(txs, minsup, maxSize)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("minsup=%d maxSize=%d: Apriori %d sets, brute force %d sets", minsup, maxSize, len(got), len(want))
			}
		}
	}
}

func TestAprioriMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	checkAprioriBruteForce(t, randomTransactions(rng, 150, 5, 20), []int{1, 3, 8}, []int{1, 2, 3})
}

// TestAprioriMatchesBruteForceRandom varies the transaction count and goes
// one level deeper, to 4-itemsets.
func TestAprioriMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		txs := randomTransactions(rng, 50+rng.Intn(150), 6, 25)
		checkAprioriBruteForce(t, txs, []int{1, 2, 5}, []int{1, 2, 3, 4})
	}
}

func TestAprioriEdgeCases(t *testing.T) {
	if got := Apriori(nil, 1, 2); got != nil {
		t.Error("empty transactions should mine nothing")
	}
	if got := Apriori(marketBasket(), 1, 0); got != nil {
		t.Error("maxSize 0 should mine nothing")
	}
	// minSupport <= 0 clamps to 1.
	sets := Apriori([]Transaction{{7}}, 0, 1)
	if len(sets) != 1 || sets[0].Support != 1 {
		t.Errorf("minsup clamp: %+v", sets)
	}
}

func TestTransactionsFromRecords(t *testing.T) {
	recs := []trace.Record{
		{Arrival: 0.00, Block: 1},
		{Arrival: 0.05, Block: 2},
		{Arrival: 0.05, Block: 2}, // duplicate within window
		{Arrival: 0.20, Block: 3},
		{Arrival: 0.21, Block: 1},
		{Arrival: 0.55, Block: 9},
	}
	txs := TransactionsFromRecords(recs, 0.133)
	if len(txs) != 3 {
		t.Fatalf("got %d transactions, want 3: %v", len(txs), txs)
	}
	if !reflect.DeepEqual(txs[0], Transaction{1, 2}) {
		t.Errorf("tx0 = %v, want [1 2]", txs[0])
	}
	if !reflect.DeepEqual(txs[1], Transaction{1, 3}) {
		t.Errorf("tx1 = %v, want [1 3]", txs[1])
	}
	if !reflect.DeepEqual(txs[2], Transaction{9}) {
		t.Errorf("tx2 = %v, want [9]", txs[2])
	}
}

func TestTransactionsFromRecordsEmptyAndPanic(t *testing.T) {
	if got := TransactionsFromRecords(nil, 1); got != nil {
		t.Error("no records → no transactions")
	}
	defer func() {
		if recover() == nil {
			t.Error("zero window should panic")
		}
	}()
	TransactionsFromRecords(nil, 0)
}

func TestMinePairsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var txs []Transaction
	for i := 0; i < 500; i++ {
		var tx Transaction
		seen := map[int64]bool{}
		for j := 0; j < 1+rng.Intn(8); j++ {
			v := int64(rng.Intn(50))
			if !seen[v] {
				seen[v] = true
				tx = append(tx, v)
			}
		}
		sortTx(tx)
		txs = append(txs, tx)
	}
	// 5 transactions over 4 workers leaves the last worker past the end.
	for _, n := range []int{5, len(txs)} {
		serial := MinePairsParallel(txs[:n], 2, 1)
		for _, workers := range []int{2, 4, 8, 1000} {
			par := MinePairsParallel(txs[:n], 2, workers)
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("%d txs, workers=%d: parallel result differs", n, workers)
			}
		}
	}
}

func TestMeasure(t *testing.T) {
	st := Measure(func() {
		_ = make([]byte, 10<<20)
	})
	if st.AllocMB < 9 {
		t.Errorf("AllocMB = %g, want >= ~10", st.AllocMB)
	}
	if st.Duration < 0 {
		t.Error("negative duration")
	}
}

// Property: every pair reported by MinePairs appears in at least Support
// transactions (verified by brute force on small inputs).
func TestQuickPairSupportCorrect(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var txs []Transaction
		for i := 0; i < 30; i++ {
			var tx Transaction
			seen := map[int64]bool{}
			for j := 0; j < 1+rng.Intn(5); j++ {
				v := int64(rng.Intn(10))
				if !seen[v] {
					seen[v] = true
					tx = append(tx, v)
				}
			}
			sortTx(tx)
			txs = append(txs, tx)
		}
		minsup := 1 + rng.Intn(4)
		pairs := MinePairs(txs, minsup)
		for _, p := range pairs {
			count := 0
			for _, tx := range txs {
				hasA, hasB := false, false
				for _, v := range tx {
					if v == p.A {
						hasA = true
					}
					if v == p.B {
						hasB = true
					}
				}
				if hasA && hasB {
					count++
				}
			}
			if count != p.Support || count < minsup {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMinePairs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var txs []Transaction
	for i := 0; i < 10000; i++ {
		var tx Transaction
		seen := map[int64]bool{}
		for j := 0; j < 1+rng.Intn(4); j++ {
			v := int64(rng.Intn(1000))
			if !seen[v] {
				seen[v] = true
				tx = append(tx, v)
			}
		}
		sortTx(tx)
		txs = append(txs, tx)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinePairs(txs, 2)
	}
}

func BenchmarkApriori3(b *testing.B) {
	txs := marketBasket()
	for i := 0; i < b.N; i++ {
		Apriori(txs, 2, 3)
	}
}
