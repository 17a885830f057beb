// Command fimtool mines a trace file for frequent block sets (the §IV-A
// mining step) and reports the Table IV performance metrics: mining time,
// memory allocated, and the frequent sets found. With the default -maxsize 2
// it runs the pair miner; any other size runs Apriori up to that size.
//
// Usage:
//
//	fimtool -window 0.133 -support 2 trace.file
//	tracegen -kind tpce | fimtool -support 3 -top 20 -
//	fimtool -maxsize 3 trace.file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"flashqos/internal/fim"
	"flashqos/internal/trace"
)

func main() {
	var (
		window  = flag.Float64("window", 0.133, "co-occurrence window (ms), > 0")
		support = flag.Int("support", 2, "minimum support")
		top     = flag.Int("top", 10, "sets to print (0 = none)")
		maxSize = flag.Int("maxsize", 2, "maximum itemset size: 2 mines pairs, any other size runs Apriori")
	)
	flag.Parse()
	if !(*window > 0) {
		fmt.Fprintf(os.Stderr, "fimtool: -window must be positive, got %g\n", *window)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fimtool [flags] <trace-file | ->")
		os.Exit(2)
	}

	var r io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	tr, err := trace.Read(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Transactions are cut from consecutive arrivals, so the miner needs the
	// records in arrival order whatever order the file lists them in.
	tr.Sort()

	txs := fim.TransactionsFromRecords(tr.Records, *window)
	fmt.Printf("trace: %d records -> %d transactions (window %.3f ms)\n", len(tr.Records), len(txs), *window)

	if *maxSize == 2 {
		var pairs []fim.Pair
		st := fim.Measure(func() { pairs = fim.MinePairs(txs, *support) })
		fmt.Printf("mined %d frequent pairs in %v (%.1f MB allocated)\n", len(pairs), st.Duration, st.AllocMB)
		for i, p := range pairs {
			if i >= *top {
				break
			}
			fmt.Printf("  (%d, %d) support %d\n", p.A, p.B, p.Support)
		}
		return
	}
	var sets []fim.Itemset
	st := fim.Measure(func() { sets = fim.Apriori(txs, *support, *maxSize) })
	fmt.Printf("mined %d frequent itemsets in %v (%.1f MB allocated)\n", len(sets), st.Duration, st.AllocMB)
	for i, s := range sets {
		if i >= *top {
			break
		}
		fmt.Printf("  %v support %d\n", s.Items, s.Support)
	}
}
