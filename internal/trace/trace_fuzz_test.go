package trace

import (
	"bytes"
	"testing"

	"netdimm/internal/workload"
)

// FuzzTraceRead decodes arbitrary bytes. Every trace Read accepts must
// hold only values a generator writes, and Write must turn it back into
// the bytes Read consumed.
func FuzzTraceRead(f *testing.F) {
	for _, cl := range workload.Clusters {
		var buf bytes.Buffer
		events := workload.NewGenerator(cl, 0, 1).Generate(3)
		if err := Write(&buf, Header{Cluster: cl, Seed: 1, Count: 3}, events); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("NDTR"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, events, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if checkCluster(h.Cluster) != nil || int(h.Count) != len(events) {
			t.Fatalf("accepted header %+v with %d events", h, len(events))
		}
		for i, e := range events {
			if err := e.Validate(); err != nil || e.At < 0 {
				t.Fatalf("accepted event %d %+v: %v", i, e, err)
			}
		}
		var out bytes.Buffer
		if err := Write(&out, h, events); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("re-encoding differs from the input:\n got %x\nwant %x", out.Bytes(), data[:min(len(data), out.Len())])
		}
	})
}
