// Package webrick is the paper's WEBrick experiment: a thread-per-request
// HTTP server written in mini-Ruby (as WEBrick is written in Ruby), served
// over the simulated network and driven by closed-loop clients. The server
// parses the request line with the regexp extension and the header block
// with string operations, builds a small response (the paper used a
// 46-byte page), and closes the connection.
package webrick

import (
	"fmt"

	"htmgil/internal/core"
	"htmgil/internal/fault"
	"htmgil/internal/htm"
	"htmgil/internal/netsim"
	"htmgil/internal/rbregexp"
	"htmgil/internal/resilience"
	"htmgil/internal/trace"
	"htmgil/internal/vm"
)

// pageHelpers is the request-parsing and page-building prelude both server
// shapes share.
const pageHelpers = `
$reqline = Regexp.new("^(GET|POST) ([^ ]+) HTTP/([0-9.]+)")
$hdrline = Regexp.new("^([A-Za-z-]+): *(.+)$")

def html_escape(s)
  out = ""
  i = 0
  n = s.length
  while i < n
    c = s[i]
    if c == "<"
      out = out + "&lt;"
    elsif c == ">"
      out = out + "&gt;"
    elsif c == "&"
      out = out + "&amp;"
    else
      out = out + c
    end
    i += 1
  end
  out
end

def build_page(path, headers)
  rows = ""
  ks = headers.keys
  i = 0
  while i < ks.length
    k = ks[i]
    rows = rows + "<tr><td>" + html_escape(k) + "</td><td>" + html_escape(headers[k]) + "</td></tr>"
    i += 1
  end
  "<html><head><title>" + html_escape(path) + "</title></head><body><h1>hello from webrick</h1><table>" + rows + "</table></body></html>"
end
`

// ServerSource is the WEBrick-like HTTP server, in mini-Ruby.
const ServerSource = pageHelpers + `
server = TCPServer.new(80)
while true
  sock = server.accept
  Thread.new(sock) do |s|
    req = s.read_request
    m = $reqline.match(req)
    path = "/"
    unless m.nil?
      path = m[2]
    end
    headers = {}
    lines = req.split("\r\n")
    hi = 1
    while hi < lines.length
      line = lines[hi]
      unless line.empty?
        hm = $hdrline.match(line)
        unless hm.nil?
          headers[hm[1].downcase] = hm[2]
        end
      end
      hi += 1
    end
    status = "200 OK"
    if path == "/missing"
      status = "404 Not Found"
    end
    body = build_page(path, headers)
    resp = "HTTP/1.1 " + status + "\r\n"
    resp = resp + "Content-Type: text/html\r\n"
    resp = resp + "Content-Length: #{body.length}\r\n"
    resp = resp + "Connection: close\r\n"
    resp = resp + "Server: MiniWEBrick/1.3.1\r\n\r\n"
    s.write(resp + body)
    s.close
  end
end
`

// PoolSource returns the WEBrick server with a bounded worker pool instead
// of thread-per-request: workers Ruby threads (the main thread serves as
// one of them) loop accepting and handling connections sequentially. The
// open-loop experiments need this shape — under overload, thread-per-request
// would spawn an unbounded number of live Ruby threads and hit the VM's
// 64-context cap, whereas a pool makes excess connections queue in the
// listener backlog, which is where open-loop latency tails come from. The
// request handling itself mirrors ServerSource.
func PoolSource(workers int) string {
	if workers < 2 {
		workers = 2
	}
	return pageHelpers + `
def handle_conn(s)
  req = s.read_request
  unless req.nil?
    m = $reqline.match(req)
    path = "/"
    unless m.nil?
      path = m[2]
    end
    headers = {}
    lines = req.split("\r\n")
    hi = 1
    while hi < lines.length
      line = lines[hi]
      unless line.empty?
        hm = $hdrline.match(line)
        unless hm.nil?
          headers[hm[1].downcase] = hm[2]
        end
      end
      hi += 1
    end
    status = "200 OK"
    if path == "/missing"
      status = "404 Not Found"
    end
    body = build_page(path, headers)
    resp = "HTTP/1.1 " + status + "\r\n"
    resp = resp + "Content-Type: text/html\r\n"
    resp = resp + "Content-Length: #{body.length}\r\n"
    resp = resp + "Connection: close\r\n"
    resp = resp + "Server: MiniWEBrick/1.3.1\r\n\r\n"
    s.write(resp + body)
  end
  s.close
end

server = TCPServer.new(80)
w = 1
while w < ` + fmt.Sprint(workers) + `
  Thread.new do
    while true
      handle_conn(server.accept)
    end
  end
  w += 1
end
while true
  handle_conn(server.accept)
end
`
}

// Request is what the load generator sends.
const Request = "GET /index.html HTTP/1.1\r\n" +
	"Host: sim.example\r\n" +
	"User-Agent: loadgen/1.0 (virtual)\r\n" +
	"Accept: text/html,application/xhtml+xml\r\n" +
	"Accept-Language: en-US,en\r\n" +
	"Accept-Encoding: identity\r\n" +
	"Cache-Control: max-age=0\r\n" +
	"Connection: close\r\n\r\n"

// App is a server program the harness can serve: its mini-Ruby source in
// both shapes, the request closed-loop clients send, and the natives it
// needs beyond the network and regexp extensions every app gets.
type App struct {
	Name    string                   // compilation unit name; prefixes errors
	Source  func(workers int) string // workers 0 = thread-per-request, else a bounded pool
	Request string
	Install func(*vm.VM) // nil = nothing more to install
}

// webrickApp is the server this package is named after.
var webrickApp = &App{
	Name: "webrick",
	Source: func(workers int) string {
		if workers > 0 {
			return PoolSource(workers)
		}
		return ServerSource
	},
	Request: Request,
}

// Result summarizes one server benchmark run.
type Result struct {
	Clients    int
	Completed  int
	Cycles     int64
	Throughput float64 // requests per virtual second
	AbortRatio float64
	Stats      *vm.Stats
	// Open is the finished open-loop generator (counters, latency samples)
	// when the run was driven open-loop; nil for closed-loop runs. It has
	// cleared its network plumbing (Net, Eng, OnDone) on finishing: a kept
	// Result must not keep the simulated machine alive.
	Open *netsim.OpenLoadGen
	// Res is the server-side resilience state (shed/expired counters,
	// brownout transitions) when Config.Resilience was set.
	Res *resilience.Server
}

// Config parameterizes a run.
type Config struct {
	Prof     *htm.Profile
	Mode     vm.Mode
	Policy   string // contention policy name ("" = paper-dynamic)
	Clients  int
	Requests int // total requests to serve (0 = 300)
	// ZOSMalloc models z/OS malloc: arena operations on global state even
	// with HEAPPOOLS, the paper's WEBrick-on-zEC12 conflict source.
	ZOSMalloc bool
	// App is the program to serve; nil serves the WEBrick server itself.
	// The paper ran Rails on WEBrick the same way (internal/railslite).
	App *App
	// Workers, when > 0, serves with the bounded worker-pool source instead
	// of thread-per-request (see PoolSource).
	Workers int
	// Open, when non-nil, replaces the closed-loop clients with the
	// open-loop generator: Run fills in its network plumbing (Net, Eng,
	// Port, OnDone), starts it, and returns it in Result.Open. The caller
	// sets the traffic shape (Seed, Arrivals, Routes, Sessions, ...).
	Open *netsim.OpenLoadGen
	// Trace, when non-nil, is attached to the run's VM (vm.Options.Trace)
	// so callers can observe the server's transaction events.
	Trace *trace.Recorder
	// Faults arms the deterministic fault-injection harness for the run
	// (HTM, network, timer and scheduler channels).
	Faults *fault.Spec
	// Breaker / Watchdog enable the graceful-degradation machinery.
	Breaker  bool
	Watchdog bool
	// WatchdogConfig overrides the watchdog thresholds (zero fields keep the
	// defaults); it only matters with Watchdog set.
	WatchdogConfig core.WatchdogConfig
	// Resilience arms request-level protection on the server: admission
	// control, brownout degradation and/or deadline enforcement (see
	// resilience.Config). The finished server state is returned in
	// Result.Res.
	Resilience *resilience.Config
}

// Run executes the server benchmark and reports client-side throughput.
func Run(cfg Config) (*Result, error) {
	if cfg.Requests == 0 {
		cfg.Requests = 300
	}
	app := cfg.App
	if app == nil {
		app = webrickApp
	}
	opt := vm.DefaultOptions(cfg.Prof, cfg.Mode)
	opt.Policy = cfg.Policy
	opt.Trace = cfg.Trace
	opt.Faults = cfg.Faults
	opt.Breaker = cfg.Breaker
	opt.Watchdog = cfg.Watchdog
	opt.WatchdogConfig = cfg.WatchdogConfig
	if cfg.ZOSMalloc {
		opt.ThreadLocalArenas = false
	}
	var rs *resilience.Server
	if cfg.Resilience != nil && cfg.Resilience.Enabled() {
		rs = resilience.NewServer(*cfg.Resilience)
		if rs.Deadlines != nil {
			opt.Deadlines = rs.Deadlines
			opt.DeadlineSlack = cfg.Resilience.DeadlineSlack
		}
	}
	machine := vm.New(opt)
	net := netsim.NewNetwork(machine.Engine)
	// machine.Opt.Trace (not cfg.Trace): the VM may have created a
	// recorder for the watchdog.
	net.Tracer = machine.Opt.Trace
	net.Faults = machine.Faults
	if rs != nil {
		rs.Tracer = machine.Opt.Trace
		net.Res = rs
	}
	netsim.Install(machine, net)
	rbregexp.Install(machine)
	rbregexp.InstallStringMethods(machine)
	if app.Install != nil {
		app.Install(machine)
	}

	iseq, err := machine.CompileSource(app.Source(cfg.Workers), app.Name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app.Name, err)
	}

	open := cfg.Open
	var closed *netsim.LoadGen
	if open != nil {
		open.Net, open.Eng, open.Port, open.OnDone = net, machine.Engine, 80, machine.Engine.Stop
		open.Start()
	} else {
		closed = &netsim.LoadGen{
			Net:       net,
			Eng:       machine.Engine,
			Port:      80,
			Request:   app.Request,
			ThinkTime: 10_000,
			Target:    cfg.Requests,
			OnDone:    machine.Engine.Stop,
		}
		closed.Start(cfg.Clients)
	}

	res, err := machine.Run(iseq)
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", app.Name, err)
	}
	out := &Result{
		Cycles:     res.Cycles,
		AbortRatio: res.Stats.AbortRatio(),
		Stats:      res.Stats,
		Open:       open,
		Res:        rs,
	}
	if open != nil {
		if open.Resolved() < open.Generated {
			return nil, fmt.Errorf("%s: only %d/%d open-loop requests resolved", app.Name, open.Resolved(), open.Generated)
		}
		out.Clients, out.Completed, out.Throughput = open.Sessions, open.Completed, open.Throughput()
	} else {
		if closed.Completed < cfg.Requests {
			return nil, fmt.Errorf("%s: only %d/%d requests completed", app.Name, closed.Completed, cfg.Requests)
		}
		out.Clients, out.Completed, out.Throughput = cfg.Clients, closed.Completed, closed.Throughput()
	}
	return out, nil
}
