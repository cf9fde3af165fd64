package cube

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzCube builds a small deterministic cube for the seed corpus.
func fuzzCube() *Cube {
	d := Dims{Channels: 2, Pulses: 4, Ranges: 8}
	cb := New(d)
	for i := range cb.Data {
		cb.Data[i] = complex(float32(i), -float32(i))
	}
	return cb
}

// flatFile lays cb out as a retired flat file of the given version: the
// fixed header straight followed by the samples, no chunk table.
func flatFile(cb *Cube, seq uint64, version int) []byte {
	buf := make([]byte, HeaderSize+cb.Bytes())
	EncodeSamples(cb, buf[HeaderSize:])
	h := Header{Dims: cb.Dims, Seq: seq, Version: version}
	if version == 2 {
		h.Checksum = Checksum(buf[HeaderSize:])
	}
	EncodeHeader(h, buf)
	return buf
}

// FuzzCodecRoundTrip drives the cube file reader with arbitrary bytes.
// Three invariants: the reader never panics (truncated headers, truncated
// or oversized chunk tables, hostile dims — everything must surface as an
// error), a well-formed header of the retired flat versions 1 and 2 fails
// with ErrVersion, and any input it accepts re-encodes to a file that
// decodes back to the same samples.
func FuzzCodecRoundTrip(f *testing.F) {
	cb := fuzzCube()

	// Retired flat frames: v2 (payload checksum) and v1 (none).
	flat := flatFile(cb, 3, 2)
	f.Add(flat)
	f.Add(flatFile(cb, 3, 1))

	// v3 chunked frame, plus truncation points inside the chunk table and
	// the payload.
	chunked := make([]byte, FileBytesChunked(cb.Dims, 64))
	EncodeChunked(cb, 3, 64, chunked)
	f.Add(chunked)
	f.Add(chunked[:HeaderSize+2])                    // mid chunk-table preamble
	f.Add(chunked[:HeaderSize+11])                   // mid chunk-CRC table
	f.Add(chunked[:len(chunked)-5])                  // mid payload
	f.Add(flat[:HeaderSize-1])                       // mid header
	f.Add([]byte("SCPI"))                            // magic only
	f.Add(bytes.Repeat([]byte{0xff}, HeaderSize+16)) // garbage
	corrupt := append([]byte(nil), chunked...)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt) // checksum mismatch

	f.Fuzz(func(t *testing.T, data []byte) {
		// The reader trusts the header's dims for its payload allocation,
		// as any consumer of the format must; cap them so the fuzzer
		// explores the codec rather than the allocator.
		if len(data) >= HeaderSize {
			c := uint64(binary.LittleEndian.Uint32(data[8:12]))
			p := uint64(binary.LittleEndian.Uint32(data[12:16]))
			r := uint64(binary.LittleEndian.Uint32(data[16:20]))
			lim := uint64(1) << 17 // 1 MiB of samples
			if c > lim || p > lim || r > lim || c*p*r > lim {
				t.Skip()
			}
		}
		cb, h, err := Read(bytes.NewReader(data))
		if len(data) >= HeaderSize && string(data[0:4]) == Magic {
			if v := binary.LittleEndian.Uint32(data[4:8]); (v == 1 || v == 2) && !errors.Is(err, ErrVersion) {
				t.Fatalf("flat version %d input: got %v, want ErrVersion", v, err)
			}
		}
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		if !h.Valid() || cb.Dims != h.Dims {
			t.Fatalf("accepted header with dims %v but cube %v", h.Dims, cb.Dims)
		}

		// Accepted input must survive a re-encode.
		ch := make([]byte, FileBytesChunked(cb.Dims, 64))
		EncodeChunked(cb, h.Seq, 64, ch)
		ccb, chh, err := Read(bytes.NewReader(ch))
		if err != nil {
			t.Fatalf("chunked re-encode of accepted input fails to decode: %v", err)
		}
		if chh.Seq != h.Seq || chh.Chunks() == 0 {
			t.Fatalf("chunked round trip: seq %d -> %d, %d chunks", h.Seq, chh.Seq, chh.Chunks())
		}
		if !bytes.Equal(samplesOf(cb), samplesOf(ccb)) {
			t.Fatal("chunked round trip changed the samples")
		}
	})
}

// samplesOf returns the cube's payload encoding for comparison.
func samplesOf(cb *Cube) []byte {
	buf := make([]byte, cb.Dims.Bytes())
	EncodeSamples(cb, buf)
	return buf
}
