package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/netpoll"
	"github.com/melyruntime/mely/internal/sws"
)

// The sws workload matches cmd/sws's defaults: 150 files of 1 KiB,
// a 60 s idle timeout, the epoll backend and the default runtime
// config. Each client is a closed loop of swsReqsPerConn keep-alive
// requests per connection followed by a reconnect.
const (
	swsFiles       = 150
	swsFileSize    = 1024
	swsReqsPerConn = 150
	swsIdleTimeout = 60 * time.Second
	// swsConnDeadline fails a connection whose 150 requests have not
	// finished by then; they normally take a few milliseconds.
	swsConnDeadline = 10 * time.Second
	// spanEvery keeps one operation's spans in this many, bounding the
	// memory a traced run holds.
	spanEvery = 16
)

// swsFileSet is cmd/sws's content: file i is the alphabet shifted by i.
func swsFileSet() map[string][]byte {
	files := make(map[string][]byte, swsFiles)
	for i := 0; i < swsFiles; i++ {
		files[swsPath(i)] = swsBody(i)
	}
	return files
}

func swsPath(i int) string { return fmt.Sprintf("/file%d.bin", i) }

func swsBody(i int) []byte {
	body := make([]byte, swsFileSize)
	for j := range body {
		body[j] = byte('a' + (i+j)%26)
	}
	return body
}

type swsInstance struct {
	rt  *mely.Runtime
	srv *sws.Server
}

func (s swsInstance) runtime() *mely.Runtime { return s.rt }

func (s swsInstance) teardown() {
	s.srv.Close()
	s.rt.Stop()
}

func setupSWS(files map[string][]byte, cores int) (swsInstance, error) {
	rt, err := mely.New(mely.Config{Cores: cores})
	if err != nil {
		return swsInstance{}, err
	}
	srv, err := sws.New(sws.Config{Runtime: rt, Files: files, IdleTimeout: swsIdleTimeout, Backend: netpoll.BackendEpoll})
	if err != nil {
		rt.Stop()
		return swsInstance{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Stop()
		return swsInstance{}, err
	}
	if err := srv.Serve(ln); err != nil {
		ln.Close()
		rt.Stop()
		return swsInstance{}, err
	}
	if err := rt.Start(); err != nil {
		srv.Close()
		rt.Stop()
		return swsInstance{}, err
	}
	return swsInstance{rt: rt, srv: srv}, nil
}

func runSWS(o options, rep *report) error {
	cores := runtime.NumCPU()
	files := swsFileSet()
	rep.params["cores"] = cores
	rep.params["clients"] = cores
	rep.params["files"] = swsFiles
	rep.params["file_bytes"] = swsFileSize
	rep.params["reqs_per_conn"] = swsReqsPerConn
	rep.params["backend"] = netpoll.BackendEpoll.String()

	p := newPhase()
	clients := make([]*swsClient, cores)
	for i := range clients {
		clients[i] = newSWSClient(o, i, p)
	}
	lat := make([]latencies, len(clients))
	for i, c := range clients {
		lat[i] = c.lat
	}
	latSum := newLatSummary(o.seconds)
	seg, err := runSegments(o, p,
		func() (instance, error) { return setupSWS(files, cores) },
		func(inst instance) func() {
			addr := inst.(swsInstance).srv.Addr().String()
			var stop atomic.Bool
			var wg sync.WaitGroup
			for _, c := range clients {
				wg.Add(1)
				go func(c *swsClient) {
					defer wg.Done()
					c.run(addr, &stop)
				}(c)
			}
			return func() {
				stop.Store(true)
				wg.Wait()
			}
		},
		func(from, to int) { latSum.fold(lat, from, to) })
	if err != nil {
		return err
	}

	ws := seg.ws
	var connect, send, wait, recv []latencies
	var logs []*spanLog
	for _, c := range clients {
		rep.attempted += c.attempted
		rep.failed += c.failed
		if c.firstErr != nil {
			rep.fault("client %d: %v", c.id, c.firstErr)
		}
		connect, send = append(connect, c.connect), append(send, c.send)
		wait, recv = append(wait, c.wait), append(recv, c.recv)
		logs = append(logs, &c.log)
	}
	endToEnd(rep, seg, latSum)
	statsLayers(rep, ws)
	// The handlers are the server's, so their mean comes from Stats.
	d := sumWindows(ws, untraced)
	rep.setLayer("exec.handler_ns_mean", ratio(float64(d.ctr[cExecNs]), float64(d.ctr[cEvents])))
	p50us := func(ls []latencies) float64 { return quantile(merged(ls, ws, traced), 0.5) / 1e3 }
	rep.setLayer("sws.connect_us_p50", p50us(connect))
	rep.setLayer("sws.send_us_p50", p50us(send))
	rep.setLayer("sws.wait_us_p50", p50us(wait))
	rep.setLayer("sws.recv_us_p50", p50us(recv))
	rep.setLayer("trace.overhead_pct", overheadPct(ws))
	return finishTrace(o, rep, logs)
}

// swsClient is one closed-loop keep-alive client. It uses raw TCP, not
// net/http, so the client's own cost stays small and fixed.
type swsClient struct {
	id   int
	rng  *rand.Rand
	p    *phase
	reqs [][]byte
	body [][]byte
	buf  []byte

	attempted, failed int64
	firstErr          error
	ops, conns        int64 // requests issued and connections opened, for span sampling

	lat, connect, send, wait, recv latencies
	log                            spanLog
}

func newSWSClient(o options, id int, p *phase) *swsClient {
	c := &swsClient{
		id: id, p: p,
		rng: rand.New(rand.NewPCG(uint64(o.seed), uint64(id))),
		buf: make([]byte, 4096),
		lat: newLatencies(o.seconds), connect: newLatencies(o.seconds),
		send: newLatencies(o.seconds), wait: newLatencies(o.seconds), recv: newLatencies(o.seconds),
	}
	for i := 0; i < swsFiles; i++ {
		c.reqs = append(c.reqs, []byte("GET "+swsPath(i)+" HTTP/1.1\r\nHost: perfbench\r\n\r\n"))
		c.body = append(c.body, swsBody(i))
	}
	return c
}

func (c *swsClient) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// run loops over connections to addr until stop is set.
func (c *swsClient) run(addr string, stop *atomic.Bool) {
	for !stop.Load() {
		c.conns++
		conns := c.conns
		tracing := c.p.tracing.Load()
		t0 := nowNs()
		conn, err := net.Dial("tcp", addr)
		t1 := nowNs()
		if err != nil {
			c.attempted++
			c.fail(fmt.Errorf("dial: %w", err))
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if tracing {
			win := c.p.win.Load()
			c.connect.add(win, t1-t0)
			if conns%spanEvery == 0 {
				c.log.add(nextSpanID(), 0, int64(c.id)<<48|conns, "connect", t0, t1)
			}
		}
		// Every close starts at the client; linger 0 resets instead of
		// leaving a TIME_WAIT socket per reconnect, which would exhaust
		// the ephemeral ports within seconds.
		_ = conn.(*net.TCPConn).SetLinger(0)
		if err := conn.SetDeadline(time.Now().Add(swsConnDeadline)); err != nil {
			c.fail(fmt.Errorf("set deadline: %w", err))
		}
		for i := 0; i < swsReqsPerConn && !stop.Load(); i++ {
			if !c.request(conn) {
				break
			}
		}
		conn.Close()
	}
}

// request sends one GET for a seeded path and checks the response;
// it reports whether the connection is still usable.
func (c *swsClient) request(conn net.Conn) bool {
	idx := c.rng.IntN(swsFiles)
	win := c.p.win.Load()
	tracing := win >= 0 && c.p.tracing.Load()
	c.attempted++
	c.ops++
	t0 := nowNs()
	if _, err := conn.Write(c.reqs[idx]); err != nil {
		c.fail(fmt.Errorf("write: %w", err))
		return false
	}
	var t1, t2 int64
	if tracing {
		t1 = nowNs()
	}
	have, total := 0, -1
	for total < 0 || have < total {
		if have == len(c.buf) {
			c.fail(errors.New("response larger than the read buffer"))
			return false
		}
		n, err := conn.Read(c.buf[have:])
		if tracing && have == 0 {
			t2 = nowNs()
		}
		have += n
		if err != nil {
			c.fail(fmt.Errorf("read: %w", err))
			return false
		}
		if total < 0 {
			if total, err = responseLen(c.buf[:have]); err != nil {
				c.fail(err)
				return false
			}
		}
	}
	t3 := nowNs()
	if err := checkResponse(c.buf[:have], c.body[idx]); err != nil {
		c.fail(fmt.Errorf("%s: %w", swsPath(idx), err))
		return false
	}
	c.p.ops.Add(1)
	c.lat.add(win, t3-t0)
	if tracing {
		c.send.add(win, t1-t0)
		c.wait.add(win, t2-t1)
		c.recv.add(win, t3-t2)
		if c.ops%spanEvery == 0 {
			op, root := int64(c.id)<<48|(1<<47)|c.ops, nextSpanID()
			c.log.add(nextSpanID(), root, op, "send", t0, t1)
			c.log.add(nextSpanID(), root, op, "wait", t1, t2)
			c.log.add(nextSpanID(), root, op, "recv", t2, t3)
			c.log.add(root, 0, op, "op", t0, t3)
		}
	}
	return true
}

var headEnd = []byte("\r\n\r\n")

// responseLen returns the full length of the response whose head is in
// b, or -1 while the head is incomplete.
func responseLen(b []byte) (int, error) {
	end := bytes.Index(b, headEnd)
	if end < 0 {
		return -1, nil
	}
	cl, err := contentLength(b[:end])
	if err != nil {
		return 0, err
	}
	return end + len(headEnd) + cl, nil
}

func contentLength(head []byte) (int, error) {
	for _, line := range bytes.Split(head, []byte("\r\n"))[1:] {
		k, v, ok := bytes.Cut(line, []byte(":"))
		if ok && bytes.EqualFold(bytes.TrimSpace(k), []byte("Content-Length")) {
			n, err := strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil || n < 0 {
				return 0, fmt.Errorf("bad Content-Length %q", v)
			}
			return n, nil
		}
	}
	return 0, errors.New("response without Content-Length")
}

// checkResponse accepts exactly one "200 OK" response whose body is
// want, byte for byte.
func checkResponse(resp, want []byte) error {
	line, _, _ := bytes.Cut(resp, []byte("\r\n"))
	if string(line) != "HTTP/1.1 200 OK" {
		return fmt.Errorf("status line %q", line)
	}
	n, err := responseLen(resp)
	if err != nil {
		return err
	}
	if n != len(resp) {
		return fmt.Errorf("response is %d bytes, its head announces %d", len(resp), n)
	}
	body := resp[bytes.Index(resp, headEnd)+len(headEnd):]
	if !bytes.Equal(body, want) {
		return fmt.Errorf("body differs from the file (%d bytes, want %d)", len(body), len(want))
	}
	return nil
}
