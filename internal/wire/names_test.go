package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"objmig/internal/core"
)

// TestNameTable: a decoded node ID or method name that was seen before
// is the table's copy and costs no allocation; a name longer than
// maxNameLen, and any name once the table holds maxNames, decodes
// correctly but is not kept; and concurrent decoders agree.
func TestNameTable(t *testing.T) {
	img, err := MarshalAppend(nil, &InvokeReq{Obj: core.OID{Origin: "names-n0", Seq: 1}, Method: "names-Get",
		Arg: []byte{1}, From: "names-n1"})
	if err != nil {
		t.Fatal(err)
	}
	var first InvokeReq
	if err := Unmarshal(img, &first); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var req InvokeReq
		if err := Unmarshal(img, &req); err != nil {
			panic(err)
		}
		if unsafe.StringData(req.Method) != unsafe.StringData(first.Method) {
			panic("method name decoded to a fresh string")
		}
	})
	if allocs != 1 { // the argument bytes
		t.Errorf("decoding a known invoke: %v allocs, want 1 (the argument)", allocs)
	}

	long := strings.Repeat("x", maxNameLen+1)
	if a, b := intern([]byte(long)), intern([]byte(long)); a != long || unsafe.StringData(a) == unsafe.StringData(b) {
		t.Errorf("a %d-byte name was kept in the table", len(long))
	}

	// Concurrent decoders of the same new names get equal strings.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				want := fmt.Sprintf("names-race-%d", i)
				if got := intern([]byte(want)); got != want {
					t.Errorf("intern(%q) = %q", want, got)
				}
			}
		}()
	}
	wg.Wait()

	// Fill the table to its bound: later names are not kept.
	for i := 0; len(*names.table.Load()) < maxNames; i++ {
		intern([]byte(fmt.Sprintf("names-fill-%d", i)))
	}
	extra := "names-past-the-bound"
	if a, b := intern([]byte(extra)), intern([]byte(extra)); a != extra || unsafe.StringData(a) == unsafe.StringData(b) {
		t.Errorf("a name past the bound was kept")
	}
	if n := len(*names.table.Load()); n != maxNames {
		t.Errorf("table holds %d names, bound %d", n, maxNames)
	}
}
