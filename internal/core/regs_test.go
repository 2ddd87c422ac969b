package core

import (
	"testing"

	"netdimm/internal/addrmap"
	"netdimm/internal/dram"
	"netdimm/internal/sim"
)

func TestRegisterFileBasics(t *testing.T) {
	_, d := newDevice(t)
	rf := d.Registers()
	if rf != d.Registers() {
		t.Fatal("Registers should be a singleton per device")
	}
	if err := rf.Write(RegCloneSrc, 7); err != nil {
		t.Fatal(err)
	}
	v, err := rf.Read(RegCloneSrc)
	if err != nil || v != 7 {
		t.Fatalf("Read = %d, %v", v, err)
	}
	if _, err := rf.Read(Reg(99)); err == nil {
		t.Error("bad register read accepted")
	}
	if err := rf.Write(Reg(-1), 0); err == nil {
		t.Error("bad register write accepted")
	}
	if err := rf.Write(RegStatus, 1); err == nil {
		t.Error("RegStatus write accepted")
	}
}

func TestRegisterRXPending(t *testing.T) {
	eng, d := newDevice(t)
	rf := d.Registers()
	st, _ := rf.Read(RegStatus)
	if st&0xffffffff != 0 {
		t.Fatal("fresh device should report no pending RX")
	}
	d.ReceivePacket(0x1000, 256, nil)
	d.ReceivePacket(0x2000, 256, nil)
	eng.Run()
	st, _ = rf.Read(RegStatus)
	if st&0xffffffff != 2 {
		t.Fatalf("pending = %d, want 2", st&0xffffffff)
	}
	rf.AckRX()
	st, _ = rf.Read(RegStatus)
	if st&0xffffffff != 1 {
		t.Fatalf("pending after ack = %d", st&0xffffffff)
	}
	rf.AckRX()
	rf.AckRX() // over-ack is harmless
	st, _ = rf.Read(RegStatus)
	if st&0xffffffff != 0 {
		t.Fatal("pending should clamp at zero")
	}
}

func TestRegisterCloneKick(t *testing.T) {
	eng, d := newDevice(t)
	rf := d.Registers()

	// Lines cached at the source, the destination and the line past the
	// destination range: the kick must snoop out the destination alone.
	dst := addrmap.SameSubarrayPageStride
	nc := d.NCache()
	for _, a := range []int64{0, dst, dst + addrmap.CachelineSize} {
		nc.Insert(a, false, false)
	}
	rf.Write(RegCloneSrc, 0)
	rf.Write(RegCloneDst, uint64(dst))
	var mode dram.CloneMode
	fired := false
	var at sim.Time
	rf.OnCloneDone = func(m dram.CloneMode) { mode, fired, at = m, true, eng.Now() }
	want := eng.Now() + d.CloneLatency(dst, 0, 19)
	if err := rf.Write(RegCloneSize, 19); err != nil {
		t.Fatal(err)
	}
	if nc.Contains(dst) || !nc.Contains(0) || !nc.Contains(dst+addrmap.CachelineSize) {
		t.Fatalf("after kick: dst cached %v, src %v, next line %v; want only dst snooped",
			nc.Contains(dst), nc.Contains(0), nc.Contains(dst+addrmap.CachelineSize))
	}
	// Busy until the engine runs the completion.
	st, _ := rf.Read(RegStatus)
	if st&StatusCloneBusy == 0 {
		t.Fatal("clone should be busy after kick")
	}
	if err := rf.Write(RegCloneSize, 19); err == nil {
		t.Fatal("double kick while busy accepted")
	}
	eng.Run()
	if !fired || mode != dram.FPM || at != want {
		t.Fatalf("clone completion: fired=%v mode=%v at %v, want FPM at %v", fired, mode, at, want)
	}
	if rf.LastCloneMode() != dram.FPM {
		t.Fatal("LastCloneMode wrong")
	}
}

func TestRegisterCloneValidation(t *testing.T) {
	_, d := newDevice(t)
	rf := d.Registers()
	if err := rf.Write(RegCloneSize, 0); err == nil {
		t.Fatal("zero-size clone accepted")
	}
}
