// Package nvdimmp models the DDR5 asynchronous memory transaction protocol
// for NVDIMM-P-class devices (paper Sec. 2.2, Fig. 3b): reads issue an XRD
// command carrying a request ID, the device raises RDY on the response pins
// when the data is staged, the host memory controller issues SEND, and the
// data (tagged with the ID) appears on the DQ bus. Completion is therefore
// asynchronous and may be out of order — which is what lets a NetDIMM with
// non-deterministic local-DRAM access time share a channel with ordinary
// DDR5 DIMMs.
package nvdimmp

import (
	"fmt"

	"netdimm/internal/sim"
)

// Timing holds the protocol's fixed per-transaction costs beyond the
// device's media access time.
type Timing struct {
	// XRD is the command-bus time to transmit the extended read command
	// (full address + request ID takes more command-bus slots than a DDR
	// CAS).
	XRD sim.Time
	// RDYToSend is the host MC reaction time from sensing RDY on the RSP
	// pins to driving the SEND command.
	RDYToSend sim.Time
	// SendToData is the fixed delay from SEND to the first data beat.
	SendToData sim.Time
	// Burst is the data-bus occupancy of one 64B transfer (with the
	// appended request ID metadata).
	Burst sim.Time
	// XWR is the command+data time for an asynchronous (posted) write.
	XWR sim.Time
}

// DefaultTiming returns DDR5-plausible protocol constants: the protocol
// adds a few tens of nanoseconds on top of the media access.
func DefaultTiming() Timing {
	return Timing{
		XRD:        5 * sim.Nanosecond,
		RDYToSend:  10 * sim.Nanosecond,
		SendToData: 10 * sim.Nanosecond,
		Burst:      4 * sim.Nanosecond,
		XWR:        8 * sim.Nanosecond,
	}
}

// ReadOverhead is the protocol-added latency of one asynchronous read: the
// XRD command plus RDY→SEND→data handshake, excluding the media time.
func (t Timing) ReadOverhead() sim.Time {
	return t.XRD + t.RDYToSend + t.SendToData + t.Burst
}

// WriteOverhead is the protocol-added latency of one asynchronous write.
func (t Timing) WriteOverhead() sim.Time { return t.XWR }

// RequestID tags an in-flight asynchronous transaction.
type RequestID uint16

// Transaction is one tracked asynchronous read.
type Transaction struct {
	ID      RequestID
	Addr    int64
	Issued  sim.Time
	ReadyAt sim.Time // when RDY was raised; valid only once ready
	// Deadline is the instant the host MC gives up waiting for RDY
	// (Issued + the tracker's timeout); MaxTime when no timeout is set.
	Deadline sim.Time
	ready    bool
}

// Tracker manages request IDs and out-of-order completion for one channel,
// mirroring the host MC's view of outstanding NVDIMM-P transactions.
type Tracker struct {
	timing  Timing
	pending map[RequestID]*Transaction
	nextID  RequestID
	maxIDs  int
	// timeout is how long the MC waits for RDY before a transaction is
	// eligible for Abort; 0 means transactions never expire.
	timeout sim.Time

	issued    uint64
	completed uint64
	aborted   uint64
	ooo       uint64 // completions that overtook an older transaction

	// probe, when set, observes the outstanding-transaction count at the
	// instants the tracker learns the time (Issue and Ready).
	probe func(now sim.Time, outstanding int)
}

// NewTracker returns a tracker allowing up to maxOutstanding concurrent
// transactions (the protocol's ID space bound).
func NewTracker(t Timing, maxOutstanding int) *Tracker {
	if maxOutstanding <= 0 {
		panic("nvdimmp: maxOutstanding must be positive")
	}
	return &Tracker{
		timing:  t,
		pending: make(map[RequestID]*Transaction),
		maxIDs:  maxOutstanding,
	}
}

// Timing returns the tracker's protocol constants.
func (tr *Tracker) Timing() Timing { return tr.timing }

// SetTimeout arms a RDY deadline: transactions issued afterwards expire
// `d` after issue (see Expired / Abort). A zero d disarms the deadline.
func (tr *Tracker) SetTimeout(d sim.Time) { tr.timeout = d }

// Timeout returns the armed RDY deadline (0 when disarmed).
func (tr *Tracker) Timeout() sim.Time { return tr.timeout }

// Outstanding reports the number of in-flight transactions.
func (tr *Tracker) Outstanding() int { return len(tr.pending) }

// SetProbe attaches (or, with nil, detaches) an outstanding-count
// observer. The protocol's Complete and Abort paths carry no timestamp, so
// the probe fires on Issue and Ready — the instants the host MC knows the
// time — which brackets every change an exported series needs.
func (tr *Tracker) SetProbe(p func(now sim.Time, outstanding int)) { tr.probe = p }

// Issue allocates a request ID for a read of addr at time now. It returns
// an error when the ID space is exhausted (the MC must stall).
func (tr *Tracker) Issue(now sim.Time, addr int64) (*Transaction, error) {
	if len(tr.pending) >= tr.maxIDs {
		return nil, fmt.Errorf("nvdimmp: all %d request IDs in flight", tr.maxIDs)
	}
	for {
		if _, used := tr.pending[tr.nextID]; !used {
			break
		}
		tr.nextID++
	}
	tx := &Transaction{ID: tr.nextID, Addr: addr, Issued: now, Deadline: sim.MaxTime}
	if tr.timeout > 0 {
		tx.Deadline = now + tr.timeout
	}
	tr.nextID++
	tr.pending[tx.ID] = tx
	tr.issued++
	if tr.probe != nil {
		tr.probe(now, len(tr.pending))
	}
	return tx, nil
}

// Abort retires a transaction whose RDY never arrived (or arrived too late
// for the MC to act on), freeing its request ID for re-issue. It is the
// timeout path's counterpart to Complete.
func (tr *Tracker) Abort(id RequestID) (*Transaction, error) {
	tx, ok := tr.pending[id]
	if !ok {
		return nil, fmt.Errorf("nvdimmp: aborting unknown request %d", id)
	}
	delete(tr.pending, id)
	tr.aborted++
	return tx, nil
}

// Aborted reports how many transactions were retired via Abort.
func (tr *Tracker) Aborted() uint64 { return tr.aborted }

// Ready records the device raising RDY for the transaction at time now.
func (tr *Tracker) Ready(id RequestID, now sim.Time) error {
	tx, ok := tr.pending[id]
	if !ok {
		return fmt.Errorf("nvdimmp: RDY for unknown request %d", id)
	}
	if tx.ready {
		return fmt.Errorf("nvdimmp: duplicate RDY for request %d", id)
	}
	tx.ReadyAt = now
	tx.ready = true
	if tr.probe != nil {
		tr.probe(now, len(tr.pending))
	}
	return nil
}

// Complete retires the transaction (SEND issued, data received), freeing
// its ID. It returns the transaction and whether it completed out of order
// with respect to issue order.
func (tr *Tracker) Complete(id RequestID) (*Transaction, error) {
	tx, ok := tr.pending[id]
	if !ok {
		return nil, fmt.Errorf("nvdimmp: completing unknown request %d", id)
	}
	if !tx.ready {
		return nil, fmt.Errorf("nvdimmp: SEND before RDY for request %d", id)
	}
	overtook := false
	for _, other := range tr.pending {
		if other.ID != id && other.Issued < tx.Issued {
			overtook = true
			break
		}
	}
	if overtook {
		tr.ooo++
	}
	delete(tr.pending, id)
	tr.completed++
	return tx, nil
}

// Stats reports counters: issued, completed and out-of-order completions.
func (tr *Tracker) Stats() (issued, completed, outOfOrder uint64) {
	return tr.issued, tr.completed, tr.ooo
}

// ReadLatency composes the full asynchronous read latency for a media
// access of the given duration: protocol overhead + media time.
func (t Timing) ReadLatency(media sim.Time) sim.Time {
	return t.ReadOverhead() + media
}
