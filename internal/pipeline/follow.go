package pipeline

import (
	"errors"
	"fmt"
	"reflect"

	"carf/internal/harden"
	"carf/internal/isa"
	"carf/internal/regfile"
)

// Follow attaches register file models that ride along with this CPU's
// own model (the leader) through one run, so that one pipeline
// simulation yields a result for every configuration that shares the
// leader's timing (DESIGN.md §8, *Followers*). Call it after New and
// before the first cycle, with fresh models distinct from the leader
// and from each other.
//
// Every model call the pipeline makes goes to the leader and then to
// each follower still in step. Only four answers steer the timing of a
// single-threaded, unclustered core: Alloc, TryWrite, LongStall and
// ReadValue (through the reconstruction check). A follower whose answer
// to one of them differs from the leader's is dropped at that call and
// gets no further calls; the rest of its run would have been timed
// differently, so it must be simulated alone. A model whose shape
// differs — another type, tag count or read/write stage count, or under
// Config.PortContention other first-array ports — is dropped before the
// first cycle. Follower reports the outcome.
//
// Follow refuses (returns an error and attaches nothing) once the run
// has started, on a thread of an SMT core, a clustered core (steering
// classifies values) and a hardened one (lockstep, sweeps, fault
// injection). RunContext refuses a followed run watched by Profile,
// Live or Trace, whose observations would describe the leader alone,
// and one that ScheduleFault hardened after Follow.
func (c *CPU) Follow(models ...regfile.Model) error {
	if err := c.followRefusal(Observe{}); err != nil {
		return err
	}
	switch {
	case c.fan != nil:
		return errors.New("pipeline: Follow called twice")
	case c.now != 0 || c.finalized:
		return errors.New("pipeline: Follow after the run started")
	}
	f := &fanout{Model: c.model, all: make([]*follower, len(models))}
	for i, m := range models {
		fl := &follower{model: m, dropped: true}
		fl.classifier, _ = m.(Classifier)
		fl.liveLong, _ = m.(liveLongSampler)
		f.all[i] = fl
		if c.sameShape(m) && c.replayArch(m) {
			fl.dropped = false
			f.live = append(f.live, fl)
		}
	}
	c.model, c.fan = f, f
	c.liveLong = f
	return nil
}

// Follower reports the i'th model passed to Follow: ok is true when it
// stayed in step with the leader to the end and recorded no faults (a
// run Finalize would fail), and st is then its result — the leader's
// Stats with the follower's own OperandCombos. Everything else the
// follower measured (its Stats, Files, WritesByType) it holds itself,
// readable after Finalize as for the leader.
func (c *CPU) Follower(i int) (st Stats, ok bool) {
	fl := c.fan.all[i]
	if fl.dropped || faultsErr(fl.model) != nil {
		return Stats{}, false
	}
	st = c.stats
	st.OperandCombos = fl.combos
	return st, true
}

// followRefusal reports why this CPU cannot carry followers under obs,
// or nil.
func (c *CPU) followRefusal(obs Observe) error {
	switch {
	case !c.ownsHier:
		return errors.New("pipeline: an SMT thread cannot carry followers")
	case c.clusters > 1:
		return errors.New("pipeline: a clustered core cannot carry followers")
	case c.hard != nil:
		return errors.New("pipeline: a hardened core cannot carry followers")
	case obs.Profile != nil || obs.Live != nil || obs.Trace != nil:
		return errors.New("pipeline: a run with followers cannot be watched by Profile, Live or Trace")
	}
	return nil
}

// sameShape reports whether m answers the questions newCPU asked the
// leader the same way.
func (c *CPU) sameShape(m regfile.Model) bool {
	lead := c.model
	if reflect.TypeOf(m) != reflect.TypeOf(lead) || m.NumTags() != lead.NumTags() ||
		m.ReadStages() != c.readStages || m.WriteStages() != c.writeStages {
		return false
	}
	if c.cfg.PortContention {
		a, b := m.Files()[0].Spec, lead.Files()[0].Spec
		return a.ReadPorts == b.ReadPorts && a.WritePorts == b.WritePorts
	}
	return true
}

// replayArch gives m the architectural state newCPU gave the leader,
// reporting whether it allocated the same tags.
func (c *CPU) replayArch(m regfile.Model) bool {
	for r := 0; r < isa.NumRegs; r++ {
		tag, ok := m.Alloc()
		if !ok || tag != c.intMap[r] {
			return false
		}
		m.ForceWrite(tag, c.mach.X[r])
	}
	return true
}

// follower is one model riding along with the leader.
type follower struct {
	model      regfile.Model
	classifier Classifier      // nil when the model does not classify
	liveLong   liveLongSampler // nil when it samples no Long occupancy
	combos     [3][3]uint64    // its own Stats.OperandCombos
	dropped    bool
}

// fanout is the model a CPU with followers renames into. The embedded
// leader answers every call; the calls with effects are repeated on
// each follower in live, and a follower is dropped at its first
// timing-relevant answer that differs from the leader's. Name,
// NumTags, the stage counts, TypeOf and Files are the leader's alone.
type fanout struct {
	regfile.Model
	all  []*follower // in Follow order
	live []*follower // still in step
}

// drop takes live[i] out of step. The comparing methods walk live
// backwards, so a drop moves only followers already asked.
func (f *fanout) drop(i int) {
	f.live[i].dropped = true
	f.live = append(f.live[:i], f.live[i+1:]...)
}

func (f *fanout) Alloc() (int, bool) {
	tag, ok := f.Model.Alloc()
	for i := len(f.live) - 1; i >= 0; i-- {
		if t, o := f.live[i].model.Alloc(); t != tag || o != ok {
			f.drop(i)
		}
	}
	return tag, ok
}

func (f *fanout) TryWrite(tag int, value uint64) bool {
	ok := f.Model.TryWrite(tag, value)
	for i := len(f.live) - 1; i >= 0; i-- {
		if f.live[i].model.TryWrite(tag, value) != ok {
			f.drop(i)
		}
	}
	return ok
}

func (f *fanout) LongStall(threshold int) bool {
	stall := f.Model.LongStall(threshold)
	for i := len(f.live) - 1; i >= 0; i-- {
		if f.live[i].model.LongStall(threshold) != stall {
			f.drop(i)
		}
	}
	return stall
}

func (f *fanout) ReadValue(tag int) (uint64, bool) {
	v, ok := f.Model.ReadValue(tag)
	for i := len(f.live) - 1; i >= 0; i-- {
		if w, o := f.live[i].model.ReadValue(tag); w != v || o != ok {
			f.drop(i)
		}
	}
	return v, ok
}

func (f *fanout) Free(tag int) {
	f.Model.Free(tag)
	for _, fl := range f.live {
		fl.model.Free(tag)
	}
}

func (f *fanout) Read(tag int) regfile.ValueType {
	typ := f.Model.Read(tag)
	for _, fl := range f.live {
		fl.model.Read(tag)
	}
	return typ
}

func (f *fanout) ForceWrite(tag int, value uint64) {
	f.Model.ForceWrite(tag, value)
	for _, fl := range f.live {
		fl.model.ForceWrite(tag, value)
	}
}

func (f *fanout) NoteAddress(addr uint64) {
	f.Model.NoteAddress(addr)
	for _, fl := range f.live {
		fl.model.NoteAddress(addr)
	}
}

func (f *fanout) OnRobInterval(archTags []int) {
	f.Model.OnRobInterval(archTags)
	for _, fl := range f.live {
		fl.model.OnRobInterval(archTags)
	}
}

// SampleLiveLong samples the leader's and every live follower's Long
// occupancy on the leader's schedule.
func (f *fanout) SampleLiveLong() {
	if s, ok := f.Model.(liveLongSampler); ok {
		s.SampleLiveLong()
	}
	for _, fl := range f.live {
		if fl.liveLong != nil {
			fl.liveLong.SampleLiveLong()
		}
	}
}

// Release hands back the leader's and every follower's tables, the
// dropped ones' included.
func (f *fanout) Release() {
	releaseModel(f.Model)
	for _, fl := range f.all {
		releaseModel(fl.model)
	}
}

// faultsErr reports m's internal faults (double frees), which it
// records instead of panicking; a run that accumulated any did not
// execute correctly.
func faultsErr(m regfile.Model) error {
	if fr, ok := m.(harden.FaultReporter); ok {
		if faults := fr.Faults(); len(faults) > 0 {
			return fmt.Errorf("pipeline: %d register file fault(s), first: %s", len(faults), faults[0])
		}
	}
	return nil
}
