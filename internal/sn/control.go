package sn

import (
	"encoding/json"
	"fmt"
	"maps"
	"runtime/debug"

	"interedge/internal/control"
	"interedge/internal/telemetry"
	"interedge/internal/wire"
)

// The SN's own control ops. Both are served for the node as a whole
// (target SvcControl, or SvcNone) — health also for each registered
// module, under the module's service — so operators can read containment
// state even of a module too broken to answer anything.
var (
	OpHealth  = control.NewOp[control.None, []ModuleHealth](wire.SvcControl, "health")
	OpMetrics = control.NewOp[control.None, telemetry.Snapshot](wire.SvcControl, "metrics")
)

// ControlOp is one control op bound to its SN-side handler by Handle, and
// to an SN's Env and instruments when the SN registers it.
type ControlOp struct {
	service wire.ServiceID
	name    string
	serve   func(env Env, caller wire.Addr, args json.RawMessage) (json.RawMessage, error)

	env                  Env
	notePanic            func(v any) // nil for the SN's own ops
	ok, failed, panicked *telemetry.Counter
}

// Handle binds the handler h to op. The SN's dispatch decodes the request's
// args into A, runs h with the pipe peer the request arrived from as its
// caller, and encodes h's R as the reply; an error from h, or args that do
// not decode, is the caller's refusal.
func Handle[A, R any](op control.Op[A, R], h func(env Env, caller wire.Addr, a A) (R, error)) ControlOp {
	return ControlOp{
		service: op.Service,
		name:    op.Name,
		serve: func(env Env, caller wire.Addr, raw json.RawMessage) (json.RawMessage, error) {
			a, err := op.DecodeArgs(raw)
			if err != nil {
				return nil, err
			}
			r, err := h(env, caller, a)
			if err != nil {
				return nil, err
			}
			return op.EncodeReply(r)
		},
	}
}

// ControlServer is implemented by modules that accept out-of-band control
// ops (§3.2's second invocation style). Every op must name the module's
// service.
type ControlServer interface {
	ControlOps() []ControlOp
}

// controlKey names one op in the dispatch table.
type controlKey struct {
	svc wire.ServiceID
	op  string
}

// controlTable maps every registered op to its handler; see SN.controls.
type controlTable map[controlKey]*ControlOp

// controlOpsName labels one member of the dispatch's counter family.
func controlOpsName(svc, op, result string) string {
	return telemetry.Name("sn_control_ops_total", "service", svc, "op", op, "result", result)
}

// bindControl binds op to env and to its instruments, labeled with service
// svc.
func (s *SN) bindControl(op ControlOp, svc string, env Env, notePanic func(any)) *ControlOp {
	op.env, op.notePanic = env, notePanic
	op.ok = s.telem.Counter(controlOpsName(svc, op.name, "ok"))
	op.failed = s.telem.Counter(controlOpsName(svc, op.name, "error"))
	op.panicked = s.telem.Counter(controlOpsName(svc, op.name, "panic"))
	return &op
}

// run serves one request under the containment of the packet path: a
// panic is counted and answered as a *ModulePanicError instead of killing
// the SN.
func (op *ControlOp) run(caller wire.Addr, args json.RawMessage) (data json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			op.panicked.Add(1)
			if op.notePanic != nil {
				op.notePanic(r)
			}
			data, err = nil, &ModulePanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	data, err = op.serve(op.env, caller, args)
	if err != nil {
		op.failed.Add(1)
	} else {
		op.ok.Add(1)
	}
	return data, err
}

// initControl installs the SN's own ops and the counters of what names no
// op: the first entries of the dispatch table.
func (s *SN) initControl() {
	s.controlDropped = s.telem.Counter(controlOpsName("unknown", "unknown", "dropped"))
	s.controlUnknown = s.telem.Counter(controlOpsName("unknown", "unknown", "error"))
	env := &snEnv{sn: s, module: "control", service: wire.SvcControl}
	table := controlTable{}
	for _, op := range []ControlOp{
		Handle(OpHealth, func(Env, wire.Addr, control.None) ([]ModuleHealth, error) {
			return s.ModuleHealth(), nil
		}),
		// One snapshot of the node registry covering every layer (sn_*,
		// pipe_*, cache_*, sn_module_*, transport_*). Each sample is an
		// atomic read; the set is not one consistent cut (see the telemetry
		// package contract).
		Handle(OpMetrics, func(Env, wire.Addr, control.None) (telemetry.Snapshot, error) {
			return s.telem.Snapshot(), nil
		}),
	} {
		table[controlKey{op.service, op.name}] = s.bindControl(op, op.service.String(), env, nil)
	}
	s.controls.Store(&table)
}

// moduleControlOps binds the ops reg's module serves, and the node's
// health op for reg, counted with the node's.
func (s *SN) moduleControlOps(reg *registeredModule) ([]*ControlOp, error) {
	svc := reg.mod.Service()
	health := Handle(control.NewOp[control.None, ModuleHealth](svc, OpHealth.Name), func(Env, wire.Addr, control.None) (ModuleHealth, error) {
		return reg.health(), nil
	})
	out := []*ControlOp{s.bindControl(health, OpHealth.Service.String(), reg.env, nil)}
	seen := map[string]bool{health.name: true}
	if cs, ok := reg.mod.(ControlServer); ok {
		for _, op := range cs.ControlOps() {
			if op.service != svc || op.name == "" || seen[op.name] {
				return nil, fmt.Errorf("sn: module %s: control op %s %q: not its own, unnamed or declared twice", reg.mod.Name(), op.service, op.name)
			}
			seen[op.name] = true
			out = append(out, s.bindControl(op, svc.String(), reg.env, reg.notePanic))
		}
	}
	return out, nil
}

// publishControls replaces the dispatch table with a copy in which svc
// serves exactly ops. The caller holds s.mu.
func (s *SN) publishControls(svc wire.ServiceID, ops []*ControlOp) {
	next := maps.Clone(*s.controls.Load())
	maps.DeleteFunc(next, func(k controlKey, _ *ControlOp) bool { return k.svc == svc })
	for _, op := range ops {
		next[controlKey{svc, op.name}] = op
	}
	s.controls.Store(&next)
}

// handleControl is the one dispatch of the control protocol: it decodes a
// request, runs the op it names and answers on the request's connection
// ID. A packet that does not decode as a request — a reply above all — is
// dropped and counted, never answered: answering a reply would let two
// nodes bounce replies forever.
func (s *SN) handleControl(src wire.Addr, conn wire.ConnectionID, payload []byte) {
	req, err := control.DecodeRequest(payload)
	if err != nil {
		s.controlDropped.Add(1)
		return
	}
	target := req.Target
	if target == wire.SvcNone {
		target = wire.SvcControl
	}
	var data json.RawMessage
	if op, ok := (*s.controls.Load())[controlKey{target, req.Op}]; ok {
		data, err = op.run(src, req.Args)
	} else {
		s.controlUnknown.Add(1)
		err = fmt.Errorf("service %s has no control op %q", req.Target, req.Op)
	}
	// Every request gets one reply: one that cannot be sent — most likely
	// it outgrew a datagram — is replaced by the error that says so.
	hdr := wire.ILPHeader{Service: wire.SvcControl, Conn: conn}
	if serr := s.mgr.Send(src, &hdr, control.Reply(data, err)); serr != nil {
		if s.mgr.Send(src, &hdr, control.Reply(nil, fmt.Errorf("reply not sent: %w", serr))) != nil {
			s.forwardErrors.Add(1)
		}
	}
}
