package core

import (
	"testing"

	"repro/internal/cpusched"
	"repro/internal/machine"
	"repro/internal/sim"
)

// replayOnSpin saturates the tiny machine with pinned 30ms spins, replays
// cfg, and returns the scheduler and the time the last spin finished.
func replayOnSpin(t *testing.T, cfg *Config) (*cpusched.Scheduler, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	topo := machine.MustPreset(machine.TinyTest)
	opt := cpusched.Defaults()
	opt.BalanceInterval = 0
	s := cpusched.New(eng, topo, opt)
	var tasks []*cpusched.Task
	for cpu := 0; cpu < topo.NumCPUs(); cpu++ {
		cpu := cpu
		tasks = append(tasks, s.SpawnSeq(cpusched.TaskSpec{
			Name: "spin", Affinity: machine.SetOf(cpu),
		}, cpusched.ReqCompute(float64(30*sim.Millisecond)*s.Topology().CyclesPerNs())))
	}
	if cfg != nil {
		r, err := NewReplayer(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
	}
	eng.RunWhile(func() bool {
		for _, tk := range tasks {
			if !tk.Done() {
				return true
			}
		}
		return false
	})
	return s, eng.Now()
}
