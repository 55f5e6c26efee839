package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"ctxback/internal/artifact"
	"ctxback/internal/isa"
	"ctxback/internal/preempt"
)

// TestPinnedEncodings pins the exact bytes of the three wire formats
// that share the artifact codec: a CSNP checkpoint, a CART container
// and a canonical program image. Checkpoint sizes, cache keys and
// cached entries all depend on these bytes, so any codec change that
// moves one of them must bump the owning format's version instead.
func TestPinnedEncodings(t *testing.T) {
	wl := mustWorkload(t, "VA")
	d, _, _ := parked(t, preempt.Baseline, wl)
	_, snap := Capture(d, 1)

	key := artifact.NewKey("test/pinned").Str("name", "VA").Int("n", -3).Bool("b", true)
	entry := artifact.EncodeEntry(key, []byte("pinned payload"))

	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"csnp", snap, "bc3dd05d3291fedb19774121e09bf48ab997dc17bf37412c01d94cba55bf19a6"},
		{"cart", entry, "5fdbcea432e3e856f7eecb7dbf3474bac393179d8fd31916f5620ff84b6b8142"},
		{"program", isa.EncodeProgram(wl.Prog), "42af65163923ddd0c7937ba7717418c4a8e1fbf872f1c6183624b519d8ec538d"},
	} {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256 %s (%d bytes), want %s", tc.name, got, len(tc.data), tc.want)
		}
	}
}

// TestEncodeAllocatesOneImage: Encode writes every section in place, so
// a checkpoint of a 64 MiB device allocates about one memory image, not
// an image per scratch copy, and its capacity is the encoding's length.
// The launches are repeated until the control sections run to hundreds
// of KiB, as a busy device's do.
func TestEncodeAllocatesOneImage(t *testing.T) {
	d, _, _ := parked(t, preempt.Baseline, mustWorkload(t, "VA"))
	st, _ := d.ExportState()
	launches := st.Launches
	for i := 0; i < 15; i++ {
		st.Launches = append(st.Launches, launches...)
	}
	const image = 64 << 20
	st.Mem = make([]uint32, image/4)
	for i := range st.Mem {
		st.Mem[i] = uint32(i) * 2654435761
	}
	snap := &Snapshot{Epoch: 1, State: st}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	enc := Encode(snap)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > image*11/10 {
		t.Fatalf("Encode of a %d-byte image allocated %d bytes (%.2fx)", image, alloc, float64(alloc)/image)
	}
	if len(enc) < image || cap(enc) != len(enc) {
		t.Fatalf("encoded %d bytes with capacity %d for a %d-byte image", len(enc), cap(enc), image)
	}
}
