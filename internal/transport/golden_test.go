package transport

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateFrames = flag.Bool("update", false, "rewrite testdata/frames.golden from the current codec")

// TestWireFormatGolden pins the wire format: the hex frame of every
// binaryCodecCases entry, sent from "sender", must match
// testdata/frames.golden byte for byte. A layout change shows up here as a
// diff and must come with a binVersion bump; `go test ./internal/transport
// -run TestWireFormatGolden -update` rewrites the file.
func TestWireFormatGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tc := range binaryCodecCases() {
		frame, err := encodeFrame("sender", tc.payload)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&got, "%s %x\n", tc.name, frame)
	}
	path := filepath.Join("testdata", "frames.golden")
	if *updateFrames {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
