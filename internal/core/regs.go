package core

import (
	"fmt"

	"netdimm/internal/dram"
)

// Reg identifies one NetDIMM configuration-space register. The driver maps
// this space with ioremap() and programs it like a conventional NIC's BAR
// (paper Sec. 4.2.2: the e1000-derived driver reuses the standard register
// programming model; Alg. 1 line 14 "writes dst, src, and size values to a
// set of NetDIMM registers").
type Reg int

const (
	// RegStatus: read-only status bits (RX pending count in the low bits,
	// the StatusCloneBusy flag above).
	RegStatus Reg = iota
	// RegCloneSrc / RegCloneDst: DIMM-local clone addresses.
	RegCloneSrc
	RegCloneDst
	// RegCloneSize: writing the size kicks off netdimmClone(dst, src, size).
	RegCloneSize
	numRegs
)

// StatusCloneBusy is the RegStatus bit above the 32-bit RX pending count
// that is set while a clone is in flight.
const StatusCloneBusy uint64 = 1 << 32

// RegisterFile is the NetDIMM's host-visible register space. Reads and
// writes are functional; their channel timing is the RegisterBus cost the
// driver accounts separately.
type RegisterFile struct {
	dev  *Device
	regs [numRegs]uint64

	rxPending uint32
	cloneBusy bool

	// lastCloneMode records the mode of the most recent clone for
	// inspection; pendingMode is the mode of the clone in flight.
	lastCloneMode, pendingMode dram.CloneMode
	// cloneDoneFn is rf.cloneDone, bound on the first clone.
	cloneDoneFn func()

	// OnCloneDone, if set, fires when a register-kicked clone completes.
	OnCloneDone func(dram.CloneMode)
}

// Registers returns the device's register file.
func (d *Device) Registers() *RegisterFile {
	if d.regfile == nil {
		d.regfile = &RegisterFile{dev: d}
	}
	return d.regfile
}

// Read returns a register value. RegStatus composes the live status.
func (rf *RegisterFile) Read(r Reg) (uint64, error) {
	if r < 0 || r >= numRegs {
		return 0, fmt.Errorf("core: no register %d", int(r))
	}
	if r == RegStatus {
		v := uint64(rf.rxPending)
		if rf.cloneBusy {
			v |= StatusCloneBusy
		}
		return v, nil
	}
	return rf.regs[r], nil
}

// Write stores a register value and triggers its side effect: writing
// RegCloneSize launches the in-memory clone with the latched src/dst.
func (rf *RegisterFile) Write(r Reg, v uint64) error {
	if r < 0 || r >= numRegs {
		return fmt.Errorf("core: no register %d", int(r))
	}
	if r == RegStatus {
		return fmt.Errorf("core: RegStatus is read-only")
	}
	rf.regs[r] = v
	if r == RegCloneSize {
		if rf.cloneBusy {
			return fmt.Errorf("core: clone engine busy")
		}
		src := int64(rf.regs[RegCloneSrc])
		dst := int64(rf.regs[RegCloneDst])
		size := int(v)
		if size <= 0 {
			return fmt.Errorf("core: clone size %d", size)
		}
		rf.cloneBusy = true
		if rf.cloneDoneFn == nil {
			rf.cloneDoneFn = rf.cloneDone
		}
		finish, mode := rf.dev.clone(dst, src, size)
		rf.pendingMode = mode
		rf.dev.eng.At(finish, rf.cloneDoneFn)
	}
	return nil
}

// cloneDone retires the register-kicked clone in flight.
func (rf *RegisterFile) cloneDone() {
	rf.cloneBusy = false
	rf.lastCloneMode = rf.pendingMode
	if rf.OnCloneDone != nil {
		rf.OnCloneDone(rf.pendingMode)
	}
}

// noteRX bumps the RX-pending count (called by the device on packet
// arrival); the polling agent observes it via RegStatus.
func (rf *RegisterFile) noteRX() { rf.rxPending++ }

// AckRX clears one pending packet (the driver consumed a descriptor).
func (rf *RegisterFile) AckRX() {
	if rf.rxPending > 0 {
		rf.rxPending--
	}
}
