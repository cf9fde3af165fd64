package cube

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDimsValid(t *testing.T) {
	cases := []struct {
		d    Dims
		want bool
	}{
		{Dims{1, 1, 1}, true},
		{Dims{16, 128, 1024}, true},
		{Dims{0, 1, 1}, false},
		{Dims{1, 0, 1}, false},
		{Dims{1, 1, 0}, false},
		{Dims{-1, 1, 1}, false},
	}
	for _, c := range cases {
		if got := c.d.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestDimsSamplesAndBytes(t *testing.T) {
	d := Dims{Channels: 16, Pulses: 128, Ranges: 1024}
	if got, want := d.Samples(), 16*128*1024; got != want {
		t.Errorf("Samples = %d, want %d", got, want)
	}
	if got, want := d.Bytes(), int64(16*128*1024*8); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
	// The paper's reconstructed CPI file is 16 MiB of payload.
	if got, want := d.Bytes(), int64(16<<20); got != want {
		t.Errorf("paper cube payload = %d bytes, want 16 MiB = %d", got, want)
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	d := Dims{Channels: 3, Pulses: 5, Ranges: 7}
	seen := make(map[int]bool)
	for c := 0; c < d.Channels; c++ {
		for p := 0; p < d.Pulses; p++ {
			for r := 0; r < d.Ranges; r++ {
				i := d.Index(c, p, r)
				if i < 0 || i >= d.Samples() {
					t.Fatalf("Index(%d,%d,%d) = %d out of range", c, p, r, i)
				}
				if seen[i] {
					t.Fatalf("Index(%d,%d,%d) = %d collides", c, p, r, i)
				}
				seen[i] = true
				gc, gp, gr := d.Coords(i)
				if gc != c || gp != p || gr != r {
					t.Fatalf("Coords(%d) = (%d,%d,%d), want (%d,%d,%d)", i, gc, gp, gr, c, p, r)
				}
			}
		}
	}
	if len(seen) != d.Samples() {
		t.Errorf("Index covered %d offsets, want %d", len(seen), d.Samples())
	}
}

func TestIndexCoordsProperty(t *testing.T) {
	d := Dims{Channels: 11, Pulses: 13, Ranges: 17}
	f := func(c, p, r uint16) bool {
		cc := int(c) % d.Channels
		pp := int(p) % d.Pulses
		rr := int(r) % d.Ranges
		gc, gp, gr := d.Coords(d.Index(cc, pp, rr))
		return gc == cc && gp == pp && gr == rr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAtSetAndRows(t *testing.T) {
	d := Dims{Channels: 2, Pulses: 3, Ranges: 4}
	cb := New(d)
	cb.Set(1, 2, 3, 5+6i)
	if got := cb.At(1, 2, 3); got != 5+6i {
		t.Errorf("At = %v, want 5+6i", got)
	}
	row := cb.PulseRow(1, 2)
	if len(row) != d.Ranges {
		t.Fatalf("PulseRow len = %d, want %d", len(row), d.Ranges)
	}
	if row[3] != 5+6i {
		t.Errorf("PulseRow[3] = %v, want 5+6i", row[3])
	}
	// PulseRow aliases storage.
	row[0] = 9i
	if cb.At(1, 2, 0) != 9i {
		t.Error("PulseRow does not alias cube storage")
	}

	col := cb.PulseColumn(1, 3, nil)
	if len(col) != d.Pulses {
		t.Fatalf("PulseColumn len = %d, want %d", len(col), d.Pulses)
	}
	if col[2] != 5+6i {
		t.Errorf("PulseColumn[2] = %v, want 5+6i", col[2])
	}
	// Reuse a destination buffer.
	buf := make([]complex64, 10)
	col2 := cb.PulseColumn(1, 3, buf)
	if &col2[0] != &buf[0] {
		t.Error("PulseColumn did not reuse provided buffer")
	}
}

func TestCloneIsDeep(t *testing.T) {
	cb := New(Dims{2, 2, 2})
	cb.Set(0, 0, 0, 1)
	cl := cb.Clone()
	cl.Set(0, 0, 0, 2)
	if cb.At(0, 0, 0) != 1 {
		t.Error("Clone is not deep")
	}
}

func TestAddToAndScale(t *testing.T) {
	a := New(Dims{1, 2, 2})
	b := New(Dims{1, 2, 2})
	a.Fill(1 + 1i)
	b.Fill(2)
	if err := a.AddTo(b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1, 1) != 3+1i {
		t.Errorf("AddTo result = %v, want 3+1i", a.At(0, 1, 1))
	}
	a.Scale(2i)
	if got := a.At(0, 0, 0); got != complex64((3+1i)*2i) {
		t.Errorf("Scale result = %v", got)
	}
	c := New(Dims{2, 2, 2})
	if err := a.AddTo(c); err == nil {
		t.Error("AddTo with mismatched dims should error")
	}
}

func TestPowerAndMaxAbs(t *testing.T) {
	cb := New(Dims{1, 1, 4})
	cb.Data[0] = 3 + 4i // |.|^2 = 25, |.| = 5
	cb.Data[1] = 1
	if got := cb.Power(); math.Abs(got-26) > 1e-9 {
		t.Errorf("Power = %v, want 26", got)
	}
	if got := cb.MaxAbs(); math.Abs(got-5) > 1e-9 {
		t.Errorf("MaxAbs = %v, want 5", got)
	}
}

func TestEqualTolerance(t *testing.T) {
	a := New(Dims{1, 1, 2})
	b := New(Dims{1, 1, 2})
	a.Data[0] = 1
	b.Data[0] = 1.0001
	if !Equal(a, b, 1e-3) {
		t.Error("Equal should accept within tolerance")
	}
	if Equal(a, b, 1e-6) {
		t.Error("Equal should reject outside tolerance")
	}
	c := New(Dims{1, 2, 1})
	if Equal(a, c, 1) {
		t.Error("Equal should reject different dims")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := Dims{Channels: 4, Pulses: 8, Ranges: 16}
	cb := New(d)
	for i := range cb.Data {
		cb.Data[i] = complex(rng.Float32()-0.5, rng.Float32()-0.5)
	}
	var buf bytes.Buffer
	if err := WriteChunked(&buf, cb, 77, 128, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(buf.Len()), FileBytesChunked(d, 128); got != want {
		t.Errorf("encoded size = %d, want %d", got, want)
	}
	got, h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Seq != 77 {
		t.Errorf("Seq = %d, want 77", h.Seq)
	}
	if h.Dims != d {
		t.Errorf("Dims = %v, want %v", h.Dims, d)
	}
	if !Equal(cb, got, 0) {
		t.Error("decoded cube differs from original")
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, cRaw, pRaw, rRaw uint8, seq uint64) bool {
		d := Dims{
			Channels: int(cRaw)%4 + 1,
			Pulses:   int(pRaw)%6 + 1,
			Ranges:   int(rRaw)%16 + 1,
		}
		rng := rand.New(rand.NewSource(seed))
		cb := New(d)
		for i := range cb.Data {
			cb.Data[i] = complex(rng.Float32()*100-50, rng.Float32()*100-50)
		}
		var buf bytes.Buffer
		if err := WriteChunked(&buf, cb, seq, 64, nil); err != nil {
			return false
		}
		got, h, err := Read(&buf)
		if err != nil {
			return false
		}
		return h.Seq == seq && h.Dims == d && Equal(cb, got, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	if _, err := DecodeHeader(make([]byte, 10)); err == nil {
		t.Error("short header should error")
	}
	buf := make([]byte, HeaderSize)
	EncodeHeader(Header{Dims: Dims{1, 1, 1}, Seq: 0}, buf)
	buf[0] = 'X'
	if _, err := DecodeHeader(buf); err == nil {
		t.Error("bad magic should error")
	}
	EncodeHeader(Header{Dims: Dims{1, 1, 1}, Seq: 0}, buf)
	buf[4] = 99 // version
	if _, err := DecodeHeader(buf); err == nil {
		t.Error("bad version should error")
	}
	EncodeHeader(Header{Dims: Dims{0, 1, 1}, Seq: 0}, buf)
	if _, err := DecodeHeader(buf); err == nil {
		t.Error("invalid dims should error")
	}
}

func TestReadTruncated(t *testing.T) {
	d := Dims{1, 1, 4}
	cb := New(d)
	var buf bytes.Buffer
	if err := WriteChunked(&buf, cb, 0, DefaultChunkSize, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, _, err := Read(bytes.NewReader(raw[:HeaderSize+3])); err == nil {
		t.Error("truncated payload should error")
	}
	if _, _, err := Read(bytes.NewReader(raw[:5])); err == nil {
		t.Error("truncated header should error")
	}
}

func TestSplitBasic(t *testing.T) {
	b := Split(10, 3)
	want := []Block{{0, 4}, {4, 7}, {7, 10}}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("Split(10,3)[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestSplitProperties(t *testing.T) {
	f := func(n uint16, parts uint8) bool {
		nn := int(n) % 5000
		pp := int(parts)%64 + 1
		blocks := Split(nn, pp)
		if len(blocks) != pp {
			return false
		}
		total := 0
		prev := 0
		minLen, maxLen := 1<<30, -1
		for _, b := range blocks {
			if b.Lo != prev || b.Hi < b.Lo {
				return false // not contiguous or negative length
			}
			prev = b.Hi
			total += b.Len()
			if b.Len() < minLen {
				minLen = b.Len()
			}
			if b.Len() > maxLen {
				maxLen = b.Len()
			}
		}
		// Covers [0,n), even to within one item.
		return prev == nn && total == nn && maxLen-minLen <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("parts=0", func() { Split(10, 0) })
	mustPanic("n<0", func() { Split(-1, 2) })
	mustPanic("New invalid", func() { New(Dims{0, 1, 1}) })
}

func TestOwnerConsistentWithSplit(t *testing.T) {
	f := func(n uint16, parts uint8) bool {
		nn := int(n)%2000 + 1
		pp := int(parts)%32 + 1
		blocks := Split(nn, pp)
		for i := 0; i < nn; i++ {
			o := Owner(nn, pp, i)
			if !blocks[o].Contains(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOwnerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range item")
		}
	}()
	Owner(5, 2, 5)
}

func TestSplitBlockOffsets(t *testing.T) {
	sub := SplitBlock(Block{100, 110}, 3)
	if sub[0].Lo != 100 || sub[2].Hi != 110 {
		t.Errorf("SplitBlock endpoints wrong: %v", sub)
	}
	total := 0
	for _, b := range sub {
		total += b.Len()
	}
	if total != 10 {
		t.Errorf("SplitBlock total = %d, want 10", total)
	}
}

func TestIOPartitionAndByteRange(t *testing.T) {
	d := Dims{Channels: 4, Pulses: 4, Ranges: 64} // 1024 samples = 8 KiB
	parts := IOPartition(d, 8)
	var covered int64
	prevEnd := int64(0)
	for _, b := range parts {
		off, length := ByteRange(d, b)
		if off != prevEnd {
			t.Errorf("byte ranges not contiguous: off %d, want %d", off, prevEnd)
		}
		if off%8 != 0 || length%8 != 0 {
			t.Errorf("byte range not sample-aligned: off=%d len=%d", off, length)
		}
		prevEnd = off + length
		covered += length
	}
	if covered != d.Bytes() {
		t.Errorf("covered %d bytes, want %d", covered, d.Bytes())
	}
}
