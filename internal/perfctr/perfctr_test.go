package perfctr

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
)

func newCtx(t *testing.T, m *cpu.Model, tsc bool) (*kernel.Kernel, *Perfctr) {
	t.Helper()
	k := kernel.New(m)
	p, err := New(k, tsc)
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

func TestIdentity(t *testing.T) {
	_, p := newCtx(t, cpu.Athlon64X2, true)
	if p.Name() != "pc" || p.Backend() != "pc" {
		t.Error("identity wrong")
	}
	if !p.WithTSC() {
		t.Error("TSC flag lost")
	}
	if !p.SupportsReadWithoutReset() {
		t.Error("perfctr reads must not reset")
	}
}

func TestSetupConfiguresAndDisables(t *testing.T) {
	k, p := newCtx(t, cpu.Athlon64X2, true)
	specs := []core.CounterSpec{
		{Event: cpu.EventInstrRetired, User: true, OS: true},
		{Event: cpu.EventCoreCycles, User: true, OS: false},
	}
	if err := p.Setup(specs); err != nil {
		t.Fatal(err)
	}
	if p.NumCounters() != 2 {
		t.Errorf("NumCounters = %d", p.NumCounters())
	}
	// Counters must start disabled: user work counts nothing.
	prog := isa.NewBuilder("w", 0x1000).ALUBlock(100).Emit(isa.Halt()).Build()
	if err := k.Core.Run(prog); err != nil {
		t.Fatal(err)
	}
	if v, _ := k.Core.PMU.Value(0); v != 0 {
		t.Errorf("counter counted while disabled: %d", v)
	}
}

func TestSetupTooMany(t *testing.T) {
	_, p := newCtx(t, cpu.Core2Duo, true)
	specs := make([]core.CounterSpec, 3)
	for i := range specs {
		specs[i] = core.CounterSpec{Event: cpu.EventInstrRetired, User: true}
	}
	var tm *core.ErrTooManyCounters
	if err := p.Setup(specs); !errors.As(err, &tm) {
		t.Errorf("err = %v, want ErrTooManyCounters", err)
	}
}

func TestFastReadEmitsNoSyscall(t *testing.T) {
	_, p := newCtx(t, cpu.Athlon64X2, true)
	if err := p.Setup([]core.CounterSpec{{Event: cpu.EventInstrRetired, User: true}}); err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("read", 0x1000)
	p.EmitRead(b, core.PhaseC0)
	prog := b.Emit(isa.Halt()).Build()
	for _, in := range prog.Code {
		if in.Op == isa.OpSyscall {
			t.Fatal("fast read must not contain a syscall")
		}
	}
	// It must contain an RDTSC (the TSC resync that makes it possible).
	found := false
	for _, in := range prog.Code {
		if in.Op == isa.OpRDTSC {
			found = true
		}
	}
	if !found {
		t.Error("fast read must read the TSC")
	}
}

func TestSlowReadUsesSyscall(t *testing.T) {
	_, p := newCtx(t, cpu.Athlon64X2, false)
	if err := p.Setup([]core.CounterSpec{{Event: cpu.EventInstrRetired, User: true}}); err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("read", 0x1000)
	p.EmitRead(b, core.PhaseC1)
	prog := b.Emit(isa.Halt()).Build()
	found := false
	for _, in := range prog.Code {
		if in.Op == isa.OpSyscall {
			found = true
		}
	}
	if !found {
		t.Error("TSC-off read must be a syscall")
	}
}

func TestReadCapturesAllCounters(t *testing.T) {
	k, p := newCtx(t, cpu.Athlon64X2, true)
	specs := []core.CounterSpec{
		{Event: cpu.EventInstrRetired, User: true, OS: true},
		{Event: cpu.EventInstrRetired, User: true, OS: true},
		{Event: cpu.EventInstrRetired, User: true, OS: true},
	}
	if err := p.Setup(specs); err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("m", 0x1000)
	p.EmitPrepare(b)
	p.EmitRead(b, core.PhaseC1)
	b.Emit(isa.Halt())
	if err := k.Core.Run(b.Build()); err != nil {
		t.Fatal(err)
	}
	slots := map[int]bool{}
	for _, c := range k.Core.Captures {
		slots[c.Slot] = true
	}
	for i := 3; i < 6; i++ { // phase C1 slots for 3 counters
		if !slots[i] {
			t.Errorf("slot %d not captured; got %v", i, slots)
		}
	}
}

func TestStopFreezesCounts(t *testing.T) {
	k, p := newCtx(t, cpu.Athlon64X2, true)
	if err := p.Setup([]core.CounterSpec{{Event: cpu.EventInstrRetired, User: true, OS: true}}); err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("m", 0x1000)
	p.EmitPrepare(b)
	b.ALUBlock(50)
	p.EmitStop(b)
	b.ALUBlock(500) // not counted
	p.EmitRead(b, core.PhaseC1)
	b.Emit(isa.Halt())
	if err := k.Core.Run(b.Build()); err != nil {
		t.Fatal(err)
	}
	var v int64 = -1
	for _, c := range k.Core.Captures {
		if c.Slot == 1 { // phase C1 slot for 1 counter
			v = c.Value
		}
	}
	if v < 0 {
		t.Fatal("no capture")
	}
	// The frozen count covers post-enable + 50 ALU + pre-disable: far
	// less than it would be had the 500 ALUs been counted.
	if v > 400 {
		t.Errorf("stop did not freeze counts: %d", v)
	}
	if v < 50 {
		t.Errorf("count implausibly small: %d", v)
	}
}

func TestTeardown(t *testing.T) {
	k, p := newCtx(t, cpu.Athlon64X2, true)
	if err := p.Setup([]core.CounterSpec{{Event: cpu.EventInstrRetired, User: true}}); err != nil {
		t.Fatal(err)
	}
	p.Teardown()
	if k.Core.VirtualRead != nil || k.Core.OnMSR != nil {
		t.Error("teardown left hooks installed")
	}
	if p.NumCounters() != 0 {
		t.Error("teardown left counters configured")
	}
}

func TestVirtualizationAcrossSwitches(t *testing.T) {
	k, p := newCtx(t, cpu.Athlon64X2, true)
	if err := p.Setup([]core.CounterSpec{{Event: cpu.EventInstrRetired, User: true, OS: true}}); err != nil {
		t.Fatal(err)
	}
	k.Core.PMU.Enable(1)
	prog := isa.NewBuilder("w", 0x1000).ALUBlock(99).Emit(isa.Halt()).Build()
	if err := k.Core.Run(prog); err != nil {
		t.Fatal(err)
	}
	before := p.VSet().Read(0)

	// Another thread runs work; thread 1's virtual count must not move.
	t2 := k.SpawnThread()
	if err := k.SwitchTo(t2); err != nil {
		t.Fatal(err)
	}
	if err := k.Core.Run(prog); err != nil {
		t.Fatal(err)
	}
	v1, err := p.VSet().ReadThread(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != before {
		t.Errorf("thread 1 virtual count changed: %d -> %d", before, v1)
	}
}

func TestPerArchFastReadCosts(t *testing.T) {
	// The per-arch fast read tables must exist for all three processors
	// and be ordered PD > CD > K8 (NetBurst's read loop is the longest).
	for _, tag := range []string{"PD", "CD", "K8"} {
		if _, ok := fastRead[tag]; !ok {
			t.Fatalf("no fast read costs for %s", tag)
		}
	}
	if !(fastRead["PD"].Pre > fastRead["CD"].Pre && fastRead["CD"].Pre > fastRead["K8"].Pre) {
		t.Error("fast read cost ordering violated")
	}
}

// TestHandlersSharedPerCounterCount: contexts on one processor install
// the same handler programs for a counter count, a context returning to
// an earlier count reinstalls the programs it had, and the stop
// handler's disable mask follows the count.
func TestHandlersSharedPerCounterCount(t *testing.T) {
	k1, p1 := newCtx(t, cpu.PentiumD, true)
	k2, p2 := newCtx(t, cpu.PentiumD, false)
	nrs := []int{sysControl, sysStart, sysStop, sysReadA, sysReadB}
	setup := func(p *Perfctr, n int) {
		t.Helper()
		specs := make([]core.CounterSpec, n)
		for i := range specs {
			specs[i] = core.CounterSpec{Event: cpu.EventInstrRetired, User: true}
		}
		if err := p.Setup(specs); err != nil {
			t.Fatal(err)
		}
	}
	setup(p1, 1)
	setup(p2, 1)
	one := make(map[int]*isa.Program)
	for _, nr := range nrs {
		one[nr] = k1.Core.Syscalls[nr]
		if k2.Core.Syscalls[nr] != one[nr] {
			t.Errorf("syscall %d: contexts on one processor hold different handlers", nr)
		}
	}
	setup(p1, 2)
	stop := k1.Core.Syscalls[sysStop]
	if stop == one[sysStop] {
		t.Fatal("two counters reuse the one-counter stop handler")
	}
	for _, in := range stop.Code {
		if in.Op == isa.OpWRMSR && uint64(in.B) != 0b11 {
			t.Errorf("two-counter stop handler disables mask %#b, want 0b11", in.B)
		}
	}
	setup(p1, 1)
	for _, nr := range nrs {
		if k1.Core.Syscalls[nr] != one[nr] {
			t.Errorf("syscall %d: returning to one counter installed a new handler", nr)
		}
	}
	k3, p3 := newCtx(t, cpu.Athlon64X2, true)
	setup(p3, 1)
	if k3.Core.Syscalls[sysControl] == one[sysControl] {
		t.Error("processors with different kernel costs share a handler")
	}
}
