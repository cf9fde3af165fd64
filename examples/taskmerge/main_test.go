package main

func Example() {
	main()
	// Output:
	// Combining pulse compression + CFAR (Paragon, PFS stripe=64)
	//   nodes  T5+T6 (s)  T5+6 (s)  latency 7-task (s)  latency 6-task (s)  improvement  thr 7 (CPIs/s)  thr 6
	//   -----  ---------  --------  ------------------  ------------------  -----------  --------------  -----
	//   50     0.273      0.199     0.820               0.746               9.0%         2.72            2.72
	//   100    0.147      0.110     0.432               0.395               8.5%         5.27            5.27
	//   200    0.085      0.067     0.240               0.222               7.7%         9.86            9.86
	//
	// Eq. (11): T5+6 < T5 + T6 — the merged task always beats the pair, so latency
	// improves while throughput is unchanged (the bottleneck task is elsewhere).
	// The improvement percentage shrinks as nodes are added: fixed per-kernel and
	// per-node overheads claim a growing share of each task's time.
}
