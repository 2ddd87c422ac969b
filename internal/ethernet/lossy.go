package ethernet

import (
	"netdimm/internal/fault"
	"netdimm/internal/sim"
)

// LossyPath is the analytic point-to-point path (two nodes through one
// switch, as in Fig. 4 / Fig. 11) with deterministic fault injection
// layered on: each transmission attempt draws its outcome from the
// injector's sim.Rand stream, so a seeded run produces the same
// drop/corrupt trace sequentially and under parallel fan-out.
type LossyPath struct {
	Fabric Fabric
	// Inj supplies the fault decisions; nil (or a zero Spec and LossRate)
	// makes every attempt a loss-free delivery at exactly the fabric's
	// wire time.
	Inj *fault.Injector
	// LossRate is the probability a transmitted frame vanishes on the
	// wire, drawn from Inj's stream before its port-drop and corruption
	// decisions.
	LossRate float64
	// Obs, if non-nil, tallies attempt outcomes and wire occupancy. The
	// pointer survives value copies of the path.
	Obs *PathObs
}

// Attempt draws one transmission attempt for a frame of n bytes. It
// returns the outcome and the wire time the attempt consumed:
//
//   - Delivered: the full direct wire time; the frame is at the receiver.
//   - Dropped on the link: zero — the frame vanished, and the sender's
//     cost is its retransmit timeout, which the recovery engine pays.
//   - Dropped at the switch port (injected tail drop): one link traversal,
//     the serialisation the sender already spent before the drop point.
//   - Corrupted: the full wire time — the frame reaches the receiver,
//     fails the FCS check there and is discarded.
func (lp LossyPath) Attempt(n int) (fault.Outcome, sim.Time) {
	out, wire := lp.attempt(n)
	lp.Obs.record(out, wire)
	return out, wire
}

func (lp LossyPath) attempt(n int) (fault.Outcome, sim.Time) {
	if lp.Inj != nil {
		if lp.Inj.DropFrame(lp.LossRate) {
			return fault.Dropped, 0
		}
		if lp.Inj.PortDrop() {
			return fault.Dropped, lp.Fabric.Link.TransferTime(n)
		}
		if lp.Inj.CorruptFrame() {
			return fault.Corrupted, lp.Fabric.DirectWireTime(n)
		}
	}
	return fault.Delivered, lp.Fabric.DirectWireTime(n)
}
