package isa_test

import (
	"reflect"
	"runtime"
	"testing"

	"ctxback/internal/gen"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
)

// FuzzDecodeProgram throws arbitrary bytes at the program decoder, which
// reads images out of checkpoints and cache files. The invariants: no
// panic, allocation bounded by the input size (a corrupt count must not
// drive a huge allocation), and an accepted image is a fixed point —
// decode(encode(decode(x))) == decode(x). Seeds are every evaluation
// kernel and a few generated ones, plus truncated, bit-flipped and
// hostile-count variants.
func FuzzDecodeProgram(f *testing.F) {
	wls, err := kernels.All(kernels.TestParams())
	if err != nil {
		f.Fatal(err)
	}
	var progs []*isa.Program
	for _, wl := range wls {
		progs = append(progs, wl.Prog)
	}
	for _, seed := range []uint64{0, 2, 6, 19} {
		progs = append(progs, gen.Generate(seed).Prog)
	}
	for _, p := range progs {
		enc := isa.EncodeProgram(p)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		flip := append([]byte(nil), enc...)
		flip[len(flip)*2/3] ^= 0x04
		f.Add(flip)
	}
	f.Add(hugeCountHeader())
	f.Add([]byte("CTXB"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := isa.DecodeProgram(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20+8*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		again, err := isa.DecodeProgram(isa.EncodeProgram(p))
		if err != nil {
			t.Fatalf("re-decode of an accepted program failed: %v", err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatal("decode(encode(decode(x))) != decode(x)")
		}
	})
}

// hugeCountHeader is a 24-byte program header with an empty name and an
// instruction count of 1<<20 but no instruction words.
func hugeCountHeader() []byte {
	return []byte{
		'C', 'T', 'X', 'B', 1, 0, 0, 0, // magic, version 1, nameLen 0
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // vregs, sregs, lds
		0, 0, 0x10, 0, // instruction count 1<<20
	}
}

// TestDecodeHugeCountBounded: a count whose instruction words are not
// there must fail before anything is allocated for it — a 4-byte
// routine or 24-byte program header once cost 80 MiB each.
func TestDecodeHugeCountBounded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"routine", func() error { _, err := isa.DecodeRoutine([]byte{0, 0, 0x10, 0}); return err }},
		{"program", func() error { _, err := isa.DecodeProgram(hugeCountHeader()); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decode accepted a count with no instructions", tc.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: decode allocated %d bytes before failing", tc.name, alloc)
		}
	}
}
