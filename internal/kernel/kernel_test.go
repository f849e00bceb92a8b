package kernel

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

func TestNewInstallsTick(t *testing.T) {
	for _, m := range cpu.AllModels {
		k := New(m)
		if k.Core.Timer.Handler == nil || !k.Core.Timer.Enabled {
			t.Errorf("%s: tick handler not installed", m.Tag)
		}
		wantPeriod := m.GHz * 1e9 / HZ
		if k.Core.Timer.Period != wantPeriod {
			t.Errorf("%s: period = %v, want %v", m.Tag, k.Core.Timer.Period, wantPeriod)
		}
		if k.Governor() != Performance {
			t.Errorf("%s: default governor = %v, want performance", m.Tag, k.Governor())
		}
	}
}

func TestRegisterSyscall(t *testing.T) {
	k := New(cpu.Athlon64X2)
	h := isa.NewBuilder("sys_a", 0xffff0000).ALUBlock(5).Emit(isa.SysRet()).Build()
	if err := k.RegisterSyscall(100, "perfctr", h); err != nil {
		t.Fatal(err)
	}
	if err := k.RegisterSyscall(100, "perfmon", h); !errors.Is(err, ErrSyscallTaken) {
		t.Errorf("conflict err = %v, want ErrSyscallTaken", err)
	}
	bad := isa.NewBuilder("bad", 0).ALUBlock(2).Build() // no terminator
	if err := k.RegisterSyscall(101, "x", bad); err == nil {
		t.Error("invalid handler accepted")
	}
	got := k.RegisteredSyscalls()
	if len(got) != 1 || got[0] != 100 {
		t.Errorf("RegisteredSyscalls = %v", got)
	}
}

func TestTickDeliversKernelInstructions(t *testing.T) {
	k := New(cpu.Core2Duo)
	c := k.Core
	if err := c.PMU.Configure(0, cpu.CounterConfig{Event: cpu.EventInstrRetired, User: false, OS: true}); err != nil {
		t.Fatal(err)
	}
	c.PMU.Enable(1)
	c.SeedRun(9)

	// 10M iterations at ~1-2 cycles/iter crosses at least 4 tick periods
	// (2.4e6 cycles each).
	b := isa.NewBuilder("loop", 0x4000)
	b.Emit(isa.ALU())
	b.Loop(10_000_000, func(body *isa.Builder) {
		body.Emit(isa.ALU(), isa.ALU(), isa.Branch(0, true))
	})
	b.Emit(isa.Halt())
	if err := c.Run(b.Build()); err != nil {
		t.Fatal(err)
	}
	if c.TimerDeliveries < 4 {
		t.Fatalf("deliveries = %d", c.TimerDeliveries)
	}
	kins, _ := c.PMU.Value(0)
	// Each CD tick is ~1900 base instructions plus jitter plus iret.
	perTick := float64(kins) / float64(c.TimerDeliveries)
	if perTick < 1850 || perTick > 2100 {
		t.Errorf("kernel instructions per tick = %v, want ~1900-2050", perTick)
	}
}

func TestInstallTickWorkChangesHandlerCost(t *testing.T) {
	measure := func(extra int) float64 {
		k := New(cpu.Athlon64X2)
		k.InstallTickWork(extra, 0)
		c := k.Core
		if err := c.PMU.Configure(0, cpu.CounterConfig{Event: cpu.EventInstrRetired, User: false, OS: true}); err != nil {
			t.Fatal(err)
		}
		c.PMU.Enable(1)
		c.SeedRun(5)
		b := isa.NewBuilder("loop", 0x4000)
		b.Emit(isa.ALU())
		b.Loop(8_000_000, func(body *isa.Builder) {
			body.Emit(isa.ALU(), isa.ALU(), isa.Branch(0, true))
		})
		b.Emit(isa.Halt())
		if err := c.Run(b.Build()); err != nil {
			t.Fatal(err)
		}
		v, _ := c.PMU.Value(0)
		return float64(v) / float64(c.TimerDeliveries)
	}
	base := measure(0)
	heavy := measure(1000)
	if heavy-base < 800 || heavy-base > 1200 {
		t.Errorf("tick work delta = %v, want ~1000", heavy-base)
	}
}

func TestGovernorFrequencies(t *testing.T) {
	k := New(cpu.PentiumD)
	if k.FrequencyGHz() != 3.0 {
		t.Errorf("performance freq = %v", k.FrequencyGHz())
	}
	k.SetGovernor(Powersave)
	if k.FrequencyGHz() != 1.5 {
		t.Errorf("powersave freq = %v", k.FrequencyGHz())
	}
	if k.Core.FreqScale != 0.5 {
		t.Errorf("FreqScale = %v, want 0.5", k.Core.FreqScale)
	}
	k.SetGovernor(Performance)
	if k.FrequencyGHz() != 3.0 || k.Core.FreqScale != 1.0 {
		t.Error("performance governor did not restore nominal frequency")
	}
}

func TestOndemandChangesFrequencyAcrossTicks(t *testing.T) {
	k := New(cpu.Core2Duo)
	k.SetGovernor(Ondemand)
	c := k.Core
	c.SeedRun(17)
	seen := map[float64]bool{}
	b := isa.NewBuilder("loop", 0x4000)
	b.Emit(isa.ALU())
	b.Loop(30_000_000, func(body *isa.Builder) {
		body.Emit(isa.ALU(), isa.ALU(), isa.Branch(0, true))
	})
	b.Emit(isa.Halt())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c.Run(b.Build())
	}()
	<-done
	seen[k.FrequencyGHz()] = true
	// Run several measurements; ondemand must visit both P-states.
	for i := 0; i < 20; i++ {
		c.SeedRun(uint64(i))
		_ = c.Run(b.Build())
		seen[k.FrequencyGHz()] = true
	}
	if len(seen) < 2 {
		t.Errorf("ondemand never changed frequency: %v", seen)
	}
}

func TestGovernorString(t *testing.T) {
	if Performance.String() != "performance" || Powersave.String() != "powersave" || Ondemand.String() != "ondemand" {
		t.Error("governor names wrong")
	}
	if Governor(7).String() == "" {
		t.Error("unknown governor must render")
	}
}

type recordingHook struct {
	saves, restores []int
}

func (h *recordingHook) Save(tid int)    { h.saves = append(h.saves, tid) }
func (h *recordingHook) Restore(tid int) { h.restores = append(h.restores, tid) }

func TestContextSwitch(t *testing.T) {
	k := New(cpu.Athlon64X2)
	h := &recordingHook{}
	k.AddSwitchHook(h)

	if got := k.CurrentThread(); got != 1 {
		t.Fatalf("initial thread = %d", got)
	}
	t2 := k.SpawnThread()
	if t2 == 1 {
		t.Fatal("spawned thread reused ID 1")
	}
	if err := k.SwitchTo(t2); err != nil {
		t.Fatal(err)
	}
	if k.CurrentThread() != t2 {
		t.Error("switch did not change current thread")
	}
	if len(h.saves) != 1 || h.saves[0] != 1 {
		t.Errorf("saves = %v", h.saves)
	}
	if len(h.restores) != 1 || h.restores[0] != t2 {
		t.Errorf("restores = %v", h.restores)
	}
	if k.SwitchCount() != 1 {
		t.Errorf("switch count = %d", k.SwitchCount())
	}
	// Switching to the current thread is a no-op.
	if err := k.SwitchTo(t2); err != nil || k.SwitchCount() != 1 {
		t.Error("self-switch should be a no-op")
	}
	if err := k.SwitchTo(99); !errors.Is(err, ErrNoThread) {
		t.Errorf("switch to missing thread: %v", err)
	}
	if got := k.Threads(); len(got) != 2 || got[0] != 1 || got[1] != t2 {
		t.Errorf("Threads = %v", got)
	}
}

func TestContextSwitchCostCounted(t *testing.T) {
	k := New(cpu.Athlon64X2)
	c := k.Core
	if err := c.PMU.Configure(0, cpu.CounterConfig{Event: cpu.EventInstrRetired, User: false, OS: true}); err != nil {
		t.Fatal(err)
	}
	c.PMU.Enable(1)
	t2 := k.SpawnThread()
	before, _ := c.PMU.Value(0)
	if err := k.SwitchTo(t2); err != nil {
		t.Fatal(err)
	}
	after, _ := c.PMU.Value(0)
	if after-before < 1400 {
		t.Errorf("context switch counted only %d kernel instructions", after-before)
	}
}

func TestProcessStartupCost(t *testing.T) {
	for _, m := range cpu.AllModels {
		k := New(m)
		if k.ProcessStartupCost() < 1_000_000 {
			t.Errorf("%s: startup cost %d implausibly small", m.Tag, k.ProcessStartupCost())
		}
	}
}

// TestUpdateSyscallReinstall: the owner reinstalling the handler already
// at a number succeeds, another owner cannot take the number, and a
// replacement handler is validated.
func TestUpdateSyscallReinstall(t *testing.T) {
	k := New(cpu.Athlon64X2)
	h := isa.NewBuilder("sys_a", 0xffff0000).ALUBlock(5).Emit(isa.SysRet()).Build()
	for i := 0; i < 2; i++ {
		if err := k.UpdateSyscall(100, "perfctr", h); err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	if err := k.UpdateSyscall(100, "perfmon", h); !errors.Is(err, ErrSyscallTaken) {
		t.Errorf("other owner err = %v, want ErrSyscallTaken", err)
	}
	bad := isa.NewBuilder("bad", 0).ALUBlock(2).Build() // no terminator
	if err := k.UpdateSyscall(100, "perfctr", bad); err == nil {
		t.Error("invalid replacement accepted")
	}
	if k.Core.Syscalls[100] != h {
		t.Error("a rejected replacement displaced the installed handler")
	}
}

// TestTickHandlerShared: kernels with the same tick work share one tick
// handler program; different work gets its own.
func TestTickHandlerShared(t *testing.T) {
	a, b := New(cpu.Core2Duo), New(cpu.Core2Duo)
	if a.Core.Timer.Handler != b.Core.Timer.Handler {
		t.Error("kernels on one processor hold different tick handlers")
	}
	a.InstallTickWork(300, 0)
	if a.Core.Timer.Handler == b.Core.Timer.Handler {
		t.Error("extra tick work reuses the bare tick handler")
	}
	b.InstallTickWork(300, 0.5)
	if a.Core.Timer.Handler != b.Core.Timer.Handler {
		t.Error("kernels with the same tick work hold different tick handlers")
	}
}

// TestSharedConcurrentGet: goroutines that miss one key at once all
// return the same program.
func TestSharedConcurrentGet(t *testing.T) {
	var s Shared[int, *isa.Program]
	got := make([]*isa.Program, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.Get(7, func() *isa.Program {
				return isa.NewBuilder("h", 0).ALUBlock(7).Emit(isa.SysRet()).Build()
			})
		}()
	}
	wg.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("goroutine %d got a different program than goroutine 0", i)
		}
	}
}
