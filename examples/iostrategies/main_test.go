package main

func Example() {
	main()
	// Output:
	// Embedded I/O vs separate I/O task (simulated)
	//   file system            case                       thr emb  thr sep  lat emb (s)  lat sep (s)  read wait emb (s)
	//   ---------------------  -------------------------  -------  -------  -----------  -----------  -----------------
	//   Paragon PFS stripe=16  case 1: 50 compute nodes   2.72     2.62     0.820        1.075        0.000
	//   Paragon PFS stripe=16  case 2: 100 compute nodes  5.27     5.08     0.432        0.656        0.000
	//   Paragon PFS stripe=16  case 3: 200 compute nodes  5.49     5.49     0.321        0.426        0.081
	//   Paragon PFS stripe=64  case 1: 50 compute nodes   2.72     2.62     0.820        0.940        0.000
	//   Paragon PFS stripe=64  case 2: 100 compute nodes  5.27     5.08     0.432        0.522        0.000
	//   Paragon PFS stripe=64  case 3: 200 compute nodes  9.86     9.52     0.240        0.315        0.000
	//   SP PIOFS stripe=80     case 1: 50 compute nodes   5.35     5.40     0.359        0.491        0.060
	//   SP PIOFS stripe=80     case 2: 100 compute nodes  7.94     10.11    0.219        0.287        0.060
	//   SP PIOFS stripe=80     case 3: 200 compute nodes  10.44    12.22    0.150        0.187        0.060
	//
	// Observations (the paper's findings, and one deviation):
	//   * on the async Paragon PFS throughput is within 4% between designs — the
	//     bottleneck task is unchanged;
	//   * on the sync SP PIOFS the separate task raises throughput by up to 27%: it
	//     restores the pipelining that blocking embedded reads forfeit;
	//   * the separate-task latency is strictly worse — one more pipeline term (eq. 4);
	//   * with stripe factor 16 the Doppler read-wait phase blows up at 200 nodes:
	//     the parallel file system has become the pipeline bottleneck, relieved at 64.
}
