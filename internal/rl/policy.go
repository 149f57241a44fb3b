package rl

import (
	"fmt"
	"io"
	"math"
	"os"

	"simsub/internal/nn"
)

// Policy is a greedy policy over a learned Q function: for a state s it
// takes arg max_a Q(s, a; θ) (§5.3). It also records the MDP shape it was
// trained for, so search algorithms can reconstruct matching environments.
type Policy struct {
	// Net is the trained main network Q(s, a; θ).
	Net *nn.MLP
	// K is the number of skip actions the policy was trained with.
	K int
	// UseSuffix records whether states include the Θsuf component.
	UseSuffix bool
	// SimplifyState records whether prefix state maintenance excludes
	// skipped points.
	SimplifyState bool
}

// Action returns the greedy action for the state. It is safe for
// concurrent use (inference does not touch the training caches).
func (p *Policy) Action(state []float64) int {
	return argmax(p.Net.Infer(state))
}

// NumActions returns the policy's action-space size.
func (p *Policy) NumActions() int { return 2 + p.K }

// StateDim returns the width of the states the policy consumes.
func (p *Policy) StateDim() int { return StateDim(p.UseSuffix) }

// Actor is a greedy decision source a search walk draws actions from: the Q
// network behind a Policy, or a compiled TablePolicy. An Actor obtained
// from NewActor is single-goroutine — it owns reusable inference scratch —
// and must be Released when the scan ends; concurrent scans create one per
// worker.
type Actor interface {
	// Actions writes the greedy action for each of b packed dim-wide state
	// rows into out[:b]. For a fixed state row the result is deterministic
	// and independent of b and of the row's position, so evaluating many
	// states in one call (rl.Compile's grid sweep) equals evaluating them
	// one by one.
	Actions(states []float64, b int, out []int)
	// Release returns pooled scratch; the actor is unusable afterwards.
	Release()
}

// ActorSource mints per-scan Actors: implemented by *Policy (network
// inference) and *TablePolicy (compiled lookup).
type ActorSource interface {
	NewActor() Actor
	StateDim() int
}

// netActor serves greedy actions from the policy network via the batched
// zero-allocation inference path.
type netActor struct {
	net *nn.MLP
	s   *nn.InferScratch
}

// NewActor returns a single-goroutine Actor over the policy network.
func (p *Policy) NewActor() Actor {
	return &netActor{net: p.Net, s: nn.NewInferScratch()}
}

func (a *netActor) Actions(states []float64, b int, out []int) {
	a.net.InferBatchArgmax(a.s, states, b, out)
}

func (a *netActor) Release() { a.s.Release() }

// MaxSkipActions bounds the skip-action count K a policy may declare. The
// paper uses single-digit K; the bound exists so a corrupted or hostile
// policy file cannot declare an absurd action space.
const MaxSkipActions = 64

// PolicyError reports an invalid or internally inconsistent policy — a
// corrupted file, a network whose shape does not match the declared MDP, or
// non-finite weights. It is the typed error of Load and Policy.Validate, so
// callers can distinguish bad policies from I/O failures with errors.As.
type PolicyError struct {
	// Reason says what is wrong, for humans.
	Reason string
}

// Error implements the error interface.
func (e *PolicyError) Error() string { return "rl: invalid policy: " + e.Reason }

func policyErrf(format string, args ...any) error {
	return &PolicyError{Reason: fmt.Sprintf(format, args...)}
}

// Validate checks that the policy is safe to serve: the network exists, K
// is within [0, MaxSkipActions], the input width matches the declared state
// shape, the output width equals the 2+K action space (so Action can never
// return an out-of-range action), and every weight is finite. It returns a
// *PolicyError describing the first violation, or nil.
func (p *Policy) Validate() error {
	if p == nil {
		return policyErrf("nil policy")
	}
	if p.Net == nil || len(p.Net.Layers) == 0 {
		return policyErrf("policy has no network")
	}
	if p.K < 0 {
		return policyErrf("negative skip-action count k=%d", p.K)
	}
	if p.K > MaxSkipActions {
		return policyErrf("skip-action count k=%d exceeds the maximum %d", p.K, MaxSkipActions)
	}
	if in, want := p.Net.In(), StateDim(p.UseSuffix); in != want {
		return policyErrf("network input width %d inconsistent with suffix flag (want %d)", in, want)
	}
	if out, want := p.Net.Out(), p.NumActions(); out != want {
		return policyErrf("network output width %d inconsistent with k=%d (want %d)", out, p.K, want)
	}
	for li, l := range p.Net.Layers {
		for _, ps := range []*nn.Tensor{l.W, l.B} {
			for _, w := range ps.W {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					return policyErrf("layer %d has a non-finite parameter", li)
				}
			}
		}
	}
	return nil
}

// Save serializes the policy (metadata header plus network weights).
func (p *Policy) Save(w io.Writer) error {
	suffix, simplify := 0, 0
	if p.UseSuffix {
		suffix = 1
	}
	if p.SimplifyState {
		simplify = 1
	}
	if _, err := fmt.Fprintf(w, "rlspolicy %d %d %d\n", p.K, suffix, simplify); err != nil {
		return err
	}
	return nn.SaveMLP(w, p.Net)
}

// Load reads a policy written by Save. The file is untrusted input: the
// header's K and flag fields, the network's input/output widths and the
// finiteness of every weight are all validated against the declared MDP
// shape before the policy is returned, so a corrupted or hostile file
// surfaces as a *PolicyError here instead of out-of-range actions (or NaN
// rankings) at query time.
func Load(r io.Reader) (*Policy, error) {
	var tag string
	var k, suffix, simplify int
	if _, err := fmt.Fscanf(r, "%s %d %d %d\n", &tag, &k, &suffix, &simplify); err != nil {
		return nil, policyErrf("reading policy header: %v", err)
	}
	if tag != "rlspolicy" {
		return nil, policyErrf("bad policy header tag %q", tag)
	}
	if suffix != 0 && suffix != 1 {
		return nil, policyErrf("suffix flag %d is not 0 or 1", suffix)
	}
	if simplify != 0 && simplify != 1 {
		return nil, policyErrf("simplify flag %d is not 0 or 1", simplify)
	}
	if k < 0 || k > MaxSkipActions {
		return nil, policyErrf("skip-action count k=%d outside [0, %d]", k, MaxSkipActions)
	}
	net, err := nn.LoadMLP(r)
	if err != nil {
		return nil, policyErrf("%v", err)
	}
	p := &Policy{Net: net, K: k, UseSuffix: suffix == 1, SimplifyState: simplify == 1}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// SaveFile writes the policy to the named file.
func (p *Policy) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return p.Save(f)
}

// LoadFile reads a policy from the named file.
func LoadFile(path string) (*Policy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
