// Package fim implements frequent itemset mining (paper §IV-A): Apriori,
// the miner behind the paper's Table IV, as a generic level-wise search
// plus a pair-specialized parallel variant. Transactions are built from
// I/O traces by grouping requests that arrive within the same time window
// T, the storage system's response time (0.133 ms in the paper's setup).
package fim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"flashqos/internal/trace"
)

// Transaction is a set of distinct items (block numbers) requested together.
type Transaction []int64

// Pair is a frequent 2-itemset with its support count. A < B always.
type Pair struct {
	A, B    int64
	Support int
}

// Itemset is a frequent k-itemset: sorted items plus support.
type Itemset struct {
	Items   []int64
	Support int
}

// TransactionsFromRecords groups the records into transactions: all
// requests whose arrivals fall in the same window of length windowMS form
// one transaction (duplicates removed). Records must be sorted by arrival.
func TransactionsFromRecords(recs []trace.Record, windowMS float64) []Transaction {
	if windowMS <= 0 {
		panic(fmt.Sprintf("fim: window must be positive, got %g", windowMS))
	}
	var out []Transaction
	var cur map[int64]bool
	curWindow := -1
	flush := func() {
		if len(cur) == 0 {
			return
		}
		tx := make(Transaction, 0, len(cur))
		for b := range cur {
			tx = append(tx, b)
		}
		sort.Slice(tx, func(i, j int) bool { return tx[i] < tx[j] })
		out = append(out, tx)
	}
	for _, r := range recs {
		w := int(r.Arrival / windowMS)
		if w != curWindow {
			flush()
			cur = make(map[int64]bool)
			curWindow = w
		}
		cur[r.Block] = true
	}
	flush()
	return out
}

// MinePairs runs the pair-specialized Apriori: items below minSupport are
// pruned, then co-occurrence counts of the surviving items are accumulated
// per transaction. Counting is sharded across worker goroutines. Pairs are
// returned sorted by descending support, then (A, B).
func MinePairs(txs []Transaction, minSupport int) []Pair {
	return MinePairsParallel(txs, minSupport, runtime.GOMAXPROCS(0))
}

// MinePairsParallel is MinePairs with an explicit worker count.
func MinePairsParallel(txs []Transaction, minSupport, workers int) []Pair {
	if minSupport < 1 {
		minSupport = 1
	}
	if workers < 1 {
		workers = 1
	}
	// Pass 1: item supports.
	itemCount := make(map[int64]int)
	for _, tx := range txs {
		for _, it := range tx {
			itemCount[it]++
		}
	}
	frequent := make(map[int64]bool, len(itemCount))
	for it, c := range itemCount {
		if c >= minSupport {
			frequent[it] = true
		}
	}
	// Pass 2: pair supports over frequent items, sharded.
	if workers > len(txs) {
		workers = len(txs)
	}
	if workers == 0 {
		return nil
	}
	shards := make([]map[[2]int64]int, workers)
	var wg sync.WaitGroup
	chunk := (len(txs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := min(w*chunk, len(txs)) // ceil-sized chunks can run out before the last worker
		hi := lo + chunk
		if hi > len(txs) {
			hi = len(txs)
		}
		shards[w] = make(map[[2]int64]int)
		wg.Add(1)
		go func(m map[[2]int64]int, part []Transaction) {
			defer wg.Done()
			var buf []int64
			for _, tx := range part {
				buf = buf[:0]
				for _, it := range tx {
					if frequent[it] {
						buf = append(buf, it)
					}
				}
				for i := 0; i < len(buf); i++ {
					for j := i + 1; j < len(buf); j++ {
						m[[2]int64{buf[i], buf[j]}]++
					}
				}
			}
		}(shards[w], txs[lo:hi])
	}
	wg.Wait()
	total := shards[0]
	for _, m := range shards[1:] {
		for k, v := range m {
			total[k] += v
		}
	}
	var out []Pair
	for k, v := range total {
		if v >= minSupport {
			out = append(out, Pair{A: k[0], B: k[1], Support: v})
		}
	}
	sortPairs(out)
	return out
}

// sortPairs orders pairs by descending support, then (A, B).
func sortPairs(out []Pair) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
}

// Stats instruments a mining run the way the paper's Table IV reports FIM
// performance: wall-clock time and memory allocated during the run.
type Stats struct {
	Duration time.Duration
	AllocMB  float64 // bytes allocated during the run / 2^20
}

// Measure runs f and reports its duration and allocation volume.
func Measure(f func()) Stats {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return Stats{
		Duration: d,
		AllocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}
}
