// Package trace defines the on-disk format for generated packet traces:
// a small binary format written by cmd/netdimm-trace and replayed by the
// experiment harness, so trace generation and replay can run as separate
// steps (mirroring how the paper replays recorded cluster traces).
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"netdimm/internal/ethernet"
	"netdimm/internal/sim"
	"netdimm/internal/workload"
)

// Magic identifies a NetDIMM trace stream.
const Magic = "NDTR"

// Version of the trace format.
const Version = 1

// Header describes a trace file.
type Header struct {
	Cluster workload.Cluster
	Seed    uint64
	Count   uint32
}

// record is the fixed-width on-disk event: 8B timestamp (ps), 2B size,
// 1B locality.
const recordBytes = 11

// Write serialises a trace. It rejects what Read would: an unknown
// cluster, and events that fail workload.Event.Validate or have a negative
// timestamp.
func Write(w io.Writer, h Header, events []workload.Event) error {
	if int(h.Count) != len(events) {
		return fmt.Errorf("trace: header count %d != %d events", h.Count, len(events))
	}
	if err := checkCluster(h.Cluster); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	fixed := []any{uint16(Version), uint8(h.Cluster), h.Seed, h.Count}
	for _, v := range fixed {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	var buf [recordBytes]byte
	for i, e := range events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		if e.At < 0 {
			return fmt.Errorf("trace: event %d negative timestamp", i)
		}
		binary.LittleEndian.PutUint64(buf[0:8], uint64(e.At))
		binary.LittleEndian.PutUint16(buf[8:10], uint16(e.Size))
		buf[10] = uint8(e.Locality)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace stream written by Write.
func Read(r io.Reader) (Header, []workload.Event, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return Header{}, nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return Header{}, nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var version uint16
	var cluster uint8
	var h Header
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return Header{}, nil, err
	}
	if version != Version {
		return Header{}, nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &cluster); err != nil {
		return Header{}, nil, err
	}
	h.Cluster = workload.Cluster(cluster)
	if err := checkCluster(h.Cluster); err != nil {
		return Header{}, nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &h.Seed); err != nil {
		return Header{}, nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &h.Count); err != nil {
		return Header{}, nil, err
	}
	// The count is untrusted until the records arrive: reserve at most
	// maxReserve events up front.
	events := make([]workload.Event, 0, min(h.Count, maxReserve))
	var buf [recordBytes]byte
	var prev sim.Time
	for i := uint32(0); i < h.Count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return Header{}, nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		e := workload.Event{
			At:       sim.Time(binary.LittleEndian.Uint64(buf[0:8])),
			Size:     int(binary.LittleEndian.Uint16(buf[8:10])),
			Locality: ethernet.Locality(buf[10]),
		}
		if err := e.Validate(); err != nil {
			return Header{}, nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if e.At < prev {
			return Header{}, nil, fmt.Errorf("trace: event %d out of order", i)
		}
		prev = e.At
		events = append(events, e)
	}
	return h, events, nil
}

// maxReserve bounds the events Read allocates before reading them.
const maxReserve = 1 << 16

// checkCluster rejects a cluster byte no generator writes.
func checkCluster(c workload.Cluster) error {
	if c < 0 || int(c) >= len(workload.Clusters) {
		return fmt.Errorf("trace: unknown cluster %d (want 0..%d)", c, len(workload.Clusters)-1)
	}
	return nil
}
