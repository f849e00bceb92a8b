package perfmon

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
)

func newCtx(t *testing.T, m *cpu.Model) (*kernel.Kernel, *Perfmon) {
	t.Helper()
	k := kernel.New(m)
	p, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

func TestIdentity(t *testing.T) {
	_, p := newCtx(t, cpu.Athlon64X2)
	if p.Name() != "pm" || p.Backend() != "pm" {
		t.Error("identity wrong")
	}
	if !p.SupportsReadWithoutReset() {
		t.Error("pfm_read_pmds must not reset")
	}
}

func TestEveryOperationIsASyscall(t *testing.T) {
	_, p := newCtx(t, cpu.Athlon64X2)
	if err := p.Setup([]core.CounterSpec{{Event: cpu.EventInstrRetired, User: true}}); err != nil {
		t.Fatal(err)
	}
	emitters := map[string]func(*isa.Builder){
		"prepare": p.EmitPrepare,
		"start":   p.EmitStart,
		"stop":    p.EmitStop,
		"read": func(b *isa.Builder) {
			p.EmitRead(b, core.PhaseC0)
		},
	}
	for name, emit := range emitters {
		b := isa.NewBuilder(name, 0x1000)
		emit(b)
		prog := b.Emit(isa.Halt()).Build()
		found := 0
		for _, in := range prog.Code {
			if in.Op == isa.OpSyscall {
				found++
			}
		}
		if found == 0 {
			t.Errorf("%s: perfmon2 operations must be syscalls", name)
		}
		if name == "prepare" && found != 2 {
			t.Errorf("prepare should be reset+start = 2 syscalls, got %d", found)
		}
	}
}

func TestSetupValidatesEvents(t *testing.T) {
	_, p := newCtx(t, cpu.Core2Duo)
	if err := p.Setup([]core.CounterSpec{{Event: cpu.Event(99), User: true}}); err == nil {
		t.Error("unsupported event accepted")
	}
	specs := make([]core.CounterSpec, 5)
	for i := range specs {
		specs[i] = core.CounterSpec{Event: cpu.EventInstrRetired, User: true}
	}
	var tm *core.ErrTooManyCounters
	if err := p.Setup(specs); !errors.As(err, &tm) {
		t.Errorf("err = %v, want ErrTooManyCounters", err)
	}
}

func TestReadPerPMDCost(t *testing.T) {
	// The kernel read handler must contain (n-1) per-PMD blocks between
	// captures: measure the instruction distance between captures.
	k, p := newCtx(t, cpu.Core2Duo)
	run := func(n int) int64 {
		specs := make([]core.CounterSpec, n)
		for i := range specs {
			specs[i] = core.CounterSpec{Event: cpu.EventInstrRetired, User: true, OS: true}
		}
		if err := p.Setup(specs); err != nil {
			t.Fatal(err)
		}
		b := isa.NewBuilder("m", 0x1000)
		p.EmitPrepare(b)
		p.EmitRead(b, core.PhaseC1)
		b.Emit(isa.Halt())
		k.Core.SeedRun(1)
		if err := k.Core.Run(b.Build()); err != nil {
			t.Fatal(err)
		}
		var first int64 = -1
		for _, c := range k.Core.Captures {
			if c.Slot == n { // counter 0, phase C1
				first = c.Value
			}
		}
		return first
	}
	c1 := run(1)
	c2 := run(2)
	if c1 <= 0 {
		t.Fatalf("no capture: %d", c1)
	}
	// Counter 0's count is identical regardless of how many later PMDs
	// the handler reads after it (they land after the capture).
	if diff := c2 - c1; diff < -20 || diff > 20 {
		t.Errorf("counter 0 capture moved by %d with an extra PMD; the extra cost must land after the capture", diff)
	}
}

func TestStopFreezes(t *testing.T) {
	k, p := newCtx(t, cpu.Athlon64X2)
	if err := p.Setup([]core.CounterSpec{{Event: cpu.EventInstrRetired, User: true, OS: true}}); err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("m", 0x1000)
	p.EmitPrepare(b)
	b.ALUBlock(40)
	p.EmitStop(b)
	b.ALUBlock(1000)
	p.EmitRead(b, core.PhaseC1)
	b.Emit(isa.Halt())
	k.Core.SeedRun(2)
	if err := k.Core.Run(b.Build()); err != nil {
		t.Fatal(err)
	}
	var v int64 = -1
	for _, c := range k.Core.Captures {
		if c.Slot == 1 {
			v = c.Value
		}
	}
	// Window: post-enable (~265*0.8 + jitter) + 40 + user wrappers +
	// pre-disable (~330*0.8): roughly 600; the 1000 ALUs are excluded.
	if v > 900 || v < 300 {
		t.Errorf("frozen count = %d, want ~600 (1000 post-stop ALUs excluded)", v)
	}
}

func TestTeardown(t *testing.T) {
	k, p := newCtx(t, cpu.Athlon64X2)
	if err := p.Setup([]core.CounterSpec{{Event: cpu.EventInstrRetired, User: true}}); err != nil {
		t.Fatal(err)
	}
	p.Teardown()
	if k.Core.VirtualRead != nil || k.Core.OnMSR != nil || p.NumCounters() != 0 {
		t.Error("teardown incomplete")
	}
}

func TestTickWorkTables(t *testing.T) {
	for _, tag := range []string{"PD", "CD", "K8"} {
		if tickWork[tag] <= 0 {
			t.Errorf("no tick work for %s", tag)
		}
	}
}

// TestHandlersSharedPerCounterCount: contexts on one processor install
// the same handler programs for a counter count, and a context
// returning to an earlier count reinstalls the programs it had.
func TestHandlersSharedPerCounterCount(t *testing.T) {
	k1, p1 := newCtx(t, cpu.Core2Duo)
	k2, p2 := newCtx(t, cpu.Core2Duo)
	nrs := []int{sysReset, sysStart, sysStop, sysReadA, sysReadB}
	setup := func(p *Perfmon, n int) {
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
	for _, nr := range nrs {
		if k1.Core.Syscalls[nr] == one[nr] {
			t.Errorf("syscall %d: two counters reuse the one-counter handler", nr)
		}
	}
	setup(p1, 1)
	for _, nr := range nrs {
		if k1.Core.Syscalls[nr] != one[nr] {
			t.Errorf("syscall %d: returning to one counter installed a new handler", nr)
		}
	}
}
