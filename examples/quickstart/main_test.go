package main

func Example() {
	main()
	// Output:
	// ground truth:
	//   angle=+0.00 doppler=+0.250 -> doppler bin 8, range gate 40
	//   angle=-0.50 doppler=-0.310 -> doppler bin 22, range gate 90
	// CPI 3 detection: beam=0 doppler-bin=8 range=40 (18.5 dB)
	// CPI 3 detection: beam=0 doppler-bin=21 range=90 (23.7 dB)
	// CPI 3 detection: beam=0 doppler-bin=22 range=90 (24.1 dB)
	// CPI 3 detection: beam=1 doppler-bin=7 range=40 (23.2 dB)
	// CPI 3 detection: beam=1 doppler-bin=8 range=40 (23.6 dB)
	// CPI 3 detection: beam=1 doppler-bin=9 range=40 (22.9 dB)
	// CPI 3 detection: beam=1 doppler-bin=21 range=90 (18.0 dB)
}
