package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// The load generator runs in a process of its own, this binary started
// with -generate: the server's CPU time, allocations, memory and
// garbage-collection pauses are then the server's alone, and the
// generator's clock is not stopped by the server's collector. The
// parent sends one JSON request per line on the generator's standard
// input; the generator answers each with one JSON line on its standard
// output.

type genRequest struct {
	// Op is "closed", "open" or "finish".
	Op      string  `json:"op"`
	Seconds float64 `json:"seconds,omitempty"`
	// Ops, when set, ends a closed phase after that many ops instead of
	// after Seconds.
	Ops  int64   `json:"ops,omitempty"`
	Rate float64 `json:"rate,omitempty"`
	// Trace makes an open phase note every succeeded op's span keys.
	Trace bool `json:"trace,omitempty"`
}

type genReply struct {
	OK      int64   `json:"ok"`
	Elapsed float64 `json:"elapsed_s"`
	// Latency and lag quantiles in ms: of this phase on an open reply;
	// P99 and Lag99 over every open phase's samples pooled on finish.
	P50   float64 `json:"p50_ms,omitempty"`
	P99   float64 `json:"p99_ms,omitempty"`
	Lag50 float64 `json:"lag_p50_ms,omitempty"`
	Lag99 float64 `json:"lag_p99_ms,omitempty"`
	// Finish: totals over the generator's life.
	Attempted int64      `json:"attempted,omitempty"`
	Failed    int64      `json:"failed,omitempty"`
	Forwards  int64      `json:"forwards,omitempty"`
	FirstErr  string     `json:"first_error,omitempty"`
	OpenOps   int        `json:"open_ops,omitempty"`
	Traced    []tracedOp `json:"traced,omitempty"`
}

// generatorMain serves requests from the parent until finish or EOF.
// It runs nproc clients, as many as the parent's closed loop counts on.
func generatorMain(workload string, seed int64, urls []string) error {
	w, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	clients := runtime.NumCPU()
	c := newClient(newGenerator(seed, w.durable, w.nodes), urls, clients)
	defer c.close()
	var next atomic.Uint64
	var latencies, lags []float64
	in := bufio.NewScanner(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	for in.Scan() {
		var req genRequest
		if err := json.Unmarshal(in.Bytes(), &req); err != nil {
			return err
		}
		d := time.Duration(req.Seconds * float64(time.Second))
		var rep genReply
		switch req.Op {
		case "closed":
			res := closedLoop(c, &next, clients, d, req.Ops)
			rep.OK, rep.Elapsed = res.ok, res.elapsed.Seconds()
		case "open":
			c.tracing.Store(req.Trace)
			res := openLoop(c, &next, clients, req.Rate, d)
			c.tracing.Store(false)
			latencies = append(latencies, res.latency...)
			lags = append(lags, res.lag...)
			rep.OK, rep.Elapsed = res.ok, res.elapsed.Seconds()
			rep.P50 = quantile(res.latency, 0.50) / 1e6
			rep.P99 = quantile(res.latency, 0.99) / 1e6
			rep.Lag50 = quantile(res.lag, 0.50) / 1e6
		case "finish":
			rep.Attempted, rep.Failed, rep.Forwards = c.attempted.Load(), c.failed.Load(), c.forwards.Load()
			if e := c.firstErr.Load(); e != nil {
				rep.FirstErr = e.(string)
			}
			rep.P99 = quantile(latencies, 0.99) / 1e6
			rep.Lag99 = quantile(lags, 0.99) / 1e6
			rep.OpenOps = len(latencies)
			rep.Traced = c.traced
			return out.Encode(rep)
		default:
			return fmt.Errorf("unknown generator request %q", req.Op)
		}
		if err := out.Encode(rep); err != nil {
			return err
		}
	}
	return in.Err()
}

// genProc is the parent's handle on the generator process.
type genProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startGenerator(o options, urls []string) (*genProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-generate", "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-urls", strings.Join(urls, ","))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<30) // the finish reply lists every traced op
	return &genProc{cmd: cmd, in: in, out: sc}, nil
}

func (g *genProc) call(req genRequest) (genReply, error) {
	var rep genReply
	b, err := json.Marshal(req)
	if err != nil {
		return rep, err
	}
	if _, err := g.in.Write(append(b, '\n')); err != nil {
		return rep, fmt.Errorf("generator: %w", err)
	}
	if !g.out.Scan() {
		if err := g.out.Err(); err != nil {
			return rep, fmt.Errorf("generator: %w", err)
		}
		return rep, fmt.Errorf("generator exited before answering %q", req.Op)
	}
	err = json.Unmarshal(g.out.Bytes(), &rep)
	return rep, err
}

// closed runs a closed-loop phase of d, or of ops ops when ops > 0.
func (g *genProc) closed(d time.Duration, ops int64) (genReply, error) {
	return g.call(genRequest{Op: "closed", Seconds: d.Seconds(), Ops: ops})
}

func (g *genProc) open(rate float64, d time.Duration, trace bool) (genReply, error) {
	return g.call(genRequest{Op: "open", Seconds: d.Seconds(), Rate: rate, Trace: trace})
}

// finish collects the generator's totals and waits for it to exit.
func (g *genProc) finish() (genReply, error) {
	rep, err := g.call(genRequest{Op: "finish"})
	_ = g.in.Close()
	if werr := g.cmd.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("generator: %w", werr)
	}
	g.cmd = nil
	return rep, err
}

// stop ends a generator that finish did not: closing its input makes
// it return, and it is killed if it has not within a few seconds.
func (g *genProc) stop() {
	if g.cmd == nil {
		return
	}
	_ = g.in.Close()
	done := make(chan struct{})
	go func() {
		_ = g.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = g.cmd.Process.Kill()
		<-done
	}
	g.cmd = nil
}
