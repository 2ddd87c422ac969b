package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"netdimm/internal/ethernet"
	"netdimm/internal/nic"
	"netdimm/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	gen := workload.NewGenerator(workload.Webserver, 0, 11)
	events := gen.Generate(500)
	h := Header{Cluster: workload.Webserver, Seed: 11, Count: 500}

	var buf bytes.Buffer
	if err := Write(&buf, h, events); err != nil {
		t.Fatal(err)
	}
	h2, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatalf("header = %+v, want %+v", h2, h)
	}
	if len(got) != len(events) {
		t.Fatalf("events = %d", len(got))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{Count: 2}, nil); err == nil {
		t.Error("count mismatch accepted")
	}
	if err := Write(&buf, Header{Count: 1}, []workload.Event{{Size: 1 << 17}}); err == nil {
		t.Error("oversized packet accepted")
	}
	if err := Write(&buf, Header{Count: 1}, []workload.Event{{At: -1, Size: 64}}); err == nil {
		t.Error("negative timestamp accepted")
	}
	for _, tc := range []struct {
		name string
		h    Header
		e    workload.Event
		want string
	}{
		{"empty packet", Header{Count: 1}, workload.Event{Size: 0}, "event 0: packet size 0"},
		{"jumbo packet", Header{Count: 1}, workload.Event{Size: 9000}, "event 0: packet size 9000"},
		{"past the MTU", Header{Count: 1}, workload.Event{Size: nic.MTU + 1}, "packet size 1515"},
		{"unknown locality", Header{Count: 1}, workload.Event{Size: 64, Locality: 9}, "event 0: locality 9"},
		{"unknown cluster", Header{Cluster: 77, Count: 1}, workload.Event{Size: 64}, "unknown cluster 77"},
	} {
		err := Write(&buf, tc.h, []workload.Event{tc.e})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// TestReadRejectsValuesNoGeneratorWrites patches a valid one-record stream
// to hold a size outside [1, MTU], a locality outside the four classes or
// an unknown cluster; Read must reject each with an error naming the
// record (or the header's cluster) instead of replaying it.
func TestReadRejectsValuesNoGeneratorWrites(t *testing.T) {
	var buf bytes.Buffer
	events := []workload.Event{{At: 5, Size: 64, Locality: ethernet.IntraCluster}}
	if err := Write(&buf, Header{Cluster: workload.Hadoop, Seed: 3, Count: 1}, events); err != nil {
		t.Fatal(err)
	}
	// Header: magic 4, version 2, cluster 1, seed 8, count 4; then the
	// record: timestamp 8, size 2, locality 1.
	const clusterAt, sizeAt, localityAt = 6, 19 + 8, 19 + 10
	for _, tc := range []struct {
		name  string
		patch func(raw []byte)
		want  string
	}{
		{"empty packet", func(raw []byte) { binary.LittleEndian.PutUint16(raw[sizeAt:], 0) }, "event 0: packet size 0"},
		{"jumbo packet", func(raw []byte) { binary.LittleEndian.PutUint16(raw[sizeAt:], 9000) }, "event 0: packet size 9000"},
		{"unknown locality", func(raw []byte) { raw[localityAt] = 9 }, "event 0: locality 9"},
		{"unknown cluster", func(raw []byte) { raw[clusterAt] = 77 }, "unknown cluster 77"},
	} {
		raw := append([]byte(nil), buf.Bytes()...)
		tc.patch(raw)
		if _, _, err := Read(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
	if _, _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("unpatched stream rejected: %v", err)
	}
}

// TestReadHugeCountFailsCleanly gives a header that promises 2^32-1
// records and holds none; Read must fail on the missing first record
// without reserving room for the promised ones.
func TestReadHugeCountFailsCleanly(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{}, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[15:], 0xffffffff)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Read(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "event 0") {
		t.Fatalf("err = %v, want a read error at event 0", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("Read allocated %d B for a stream of %d B", got, len(raw))
	}
}

func TestReadErrors(t *testing.T) {
	if _, _, err := Read(strings.NewReader("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	events := workload.NewGenerator(workload.Hadoop, 0, 1).Generate(10)
	if err := Write(&buf, Header{Cluster: workload.Hadoop, Seed: 1, Count: 10}, events); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
	// Corrupt version.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[4] = 9
	if _, _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("bad version accepted")
	}
}

// TestReadTruncatedEverywhere cuts a valid stream at every byte boundary
// — inside the magic, inside each header field, and mid-record — and
// requires Read to fail cleanly at all of them.
func TestReadTruncatedEverywhere(t *testing.T) {
	var buf bytes.Buffer
	events := workload.NewGenerator(workload.Webserver, 0, 7).Generate(3)
	if err := Write(&buf, Header{Cluster: workload.Webserver, Seed: 7, Count: 3}, events); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("stream truncated to %d/%d bytes accepted", cut, len(raw))
		}
	}
	// The untruncated stream still reads, so the loop above exercised real
	// truncation and not some unrelated defect.
	if _, _, err := Read(bytes.NewReader(raw)); err != nil {
		t.Fatalf("full stream rejected: %v", err)
	}
}

// TestReadVersionRange rejects every version other than the supported one.
func TestReadVersionRange(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{Count: 0}, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{0, Version + 1, 0xffff} {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[4] = byte(v)
		raw[5] = byte(v >> 8)
		_, _, err := Read(bytes.NewReader(raw))
		if err == nil {
			t.Errorf("version %d accepted", v)
		} else if !strings.Contains(err.Error(), "version") {
			t.Errorf("version %d: error %q does not mention the version", v, err)
		}
	}
}

// Property: Write→Read round-trips any monotone event sequence, across
// clusters and seeds.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, cluster, count uint8) bool {
		cl := workload.Cluster(cluster % 3)
		n := int(count)
		events := workload.NewGenerator(cl, 0, seed).Generate(n)
		var buf bytes.Buffer
		h := Header{Cluster: cl, Seed: seed, Count: uint32(n)}
		if err := Write(&buf, h, events); err != nil {
			return false
		}
		h2, got, err := Read(&buf)
		if err != nil || h2 != h || len(got) != len(events) {
			return false
		}
		for i := range got {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	var buf bytes.Buffer
	events := []workload.Event{{At: 100, Size: 64}, {At: 50, Size: 64}}
	if err := Write(&buf, Header{Count: 2}, events); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(&buf); err == nil {
		t.Error("out-of-order trace accepted")
	}
}
