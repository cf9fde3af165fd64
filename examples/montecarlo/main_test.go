package main

func Example() {
	main()
	// Output:
	// Detection performance, 12 Monte-Carlo trials per cell
	//   SNR (dB)  CA Pd  CA Pfa   OS Pd  OS Pfa
	//   --------  -----  -------  -----  -------
	//   -12       0.00   0.0e+00  0.00   0.0e+00
	//   -10       0.08   0.0e+00  0.00   0.0e+00
	//   -8        0.67   0.0e+00  0.17   0.0e+00
	//   -6        0.92   0.0e+00  0.50   0.0e+00
	//   -4        1.00   0.0e+00  0.67   0.0e+00
	//
	// Pd rises with SNR along the classic detection curve. False alarms over all
	// SNR rows:
	//   CA: none in 184320 cells: observed Pfa < 1/184320 = 5.4e-06
	//   OS: none in 184320 cells: observed Pfa < 1/184320 = 5.4e-06
}
