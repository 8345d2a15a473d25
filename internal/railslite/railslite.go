// Package railslite is the paper's Ruby on Rails experiment: a small MVC
// web application in mini-Ruby — regexp routing, a controller querying the
// SQLite-like store, and string-interpolation view rendering — served by
// the WEBrick harness (internal/webrick), as the paper served Rails. As in
// the paper, Rails' backward-compatibility global request lock is disabled
// by default (the paper disabled it to expose concurrency) but can be
// enabled for the ablation.
package railslite

import (
	"fmt"

	"htmgil/internal/db"
	"htmgil/internal/webrick"
)

// setup creates and seeds the store and the routing tables.
const setup = `
$db = SQLite3.new
$db.execute("CREATE TABLE books (id, title, author)")
seed = 0
while seed < 24
  $db.execute("INSERT INTO books VALUES (#{seed}, 'The Art of Book #{seed}', 'Author #{seed % 7}')")
  seed += 1
end
$rack_lock = Mutex.new
$reqline = Regexp.new("^(GET|POST) ([^ ]+) HTTP")
$route_books = Regexp.new("^/books")
`

// rackLock returns the statements that take and release the global Rack
// lock around the controller, or nothing when the lock is disabled.
func rackLock(withLock bool) (pre, post string) {
	if withLock {
		return "$rack_lock.lock\n", "$rack_lock.unlock\n"
	}
	return "", ""
}

// appSource builds the Rails-like application; withLock wraps request
// processing in the global Rack lock.
func appSource(withLock bool) string {
	handler := `
      rows = $db.execute("SELECT * FROM books")
      items = ""
      rows.each do |row|
        items = items + "<li>" + row[1] + " by " + row[2] + "</li>"
      end
      body = "<html><head><title>Books</title></head><body><h1>Listing books</h1><ul>" + items + "</ul></body></html>"
`
	lockPre, lockPost := rackLock(withLock)
	return setup + `server = TCPServer.new(80)
while true
  sock = server.accept
  Thread.new(sock) do |s|
    req = s.read_request
    m = $reqline.match(req)
    path = "/"
    unless m.nil?
      path = m[2]
    end
    body = "<html><body>Routing Error</body></html>"
    status = "404 Not Found"
    if $route_books.match?(path)
      status = "200 OK"
` + lockPre + handler + lockPost + `
    end
    resp = "HTTP/1.1 " + status + "\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: #{body.length}\r\nX-Runtime: 0.003\r\n\r\n" + body
    s.write(resp)
    s.close
  end
end
`
}

// poolAppSource is the Rails-like application served by a bounded worker
// pool instead of thread-per-request: workers Ruby threads (the main thread
// serves as one) loop accepting and handling sequentially, so open-loop
// overload queues in the listener backlog rather than spawning unbounded
// Ruby threads against the VM's 64-context cap. Request handling mirrors
// appSource.
func poolAppSource(withLock bool, workers int) string {
	if workers < 2 {
		workers = 2
	}
	handler := `
    rows = $db.execute("SELECT * FROM books")
    items = ""
    rows.each do |row|
      items = items + "<li>" + row[1] + " by " + row[2] + "</li>"
    end
    body = "<html><head><title>Books</title></head><body><h1>Listing books</h1><ul>" + items + "</ul></body></html>"
`
	lockPre, lockPost := rackLock(withLock)
	return setup + `
def handle_conn(s)
  req = s.read_request
  unless req.nil?
    m = $reqline.match(req)
    path = "/"
    unless m.nil?
      path = m[2]
    end
    body = "<html><body>Routing Error</body></html>"
    status = "404 Not Found"
    if $route_books.match?(path)
      status = "200 OK"
` + lockPre + handler + lockPost + `
    end
    resp = "HTTP/1.1 " + status + "\r\nContent-Type: text/html; charset=utf-8\r\nContent-Length: #{body.length}\r\nX-Runtime: 0.003\r\n\r\n" + body
    s.write(resp)
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

// Request fetches the book list, as the paper's Rails application did.
const Request = "GET /books HTTP/1.1\r\nHost: sim.example\r\nUser-Agent: loadgen/1.0\r\nAccept: text/html\r\n\r\n"

// App returns the application for the WEBrick harness to serve: the source
// above plus the SQLite-like store it queries. globalLock enables Rails'
// compatibility lock (the paper disabled it).
func App(globalLock bool) *webrick.App {
	return &webrick.App{
		Name: "railslite",
		Source: func(workers int) string {
			if workers > 0 {
				return poolAppSource(globalLock, workers)
			}
			return appSource(globalLock)
		},
		Request: Request,
		Install: db.Install,
	}
}

// Config and Result are the harness's: Rails runs on WEBrick, here as in
// the paper.
type (
	Config = webrick.Config
	Result = webrick.Result
)

// Run is webrick.Run with this package's defaults: 200 requests, and App(false)
// (the paper's configuration, lock disabled) unless cfg.App is set.
func Run(cfg Config) (*Result, error) {
	if cfg.Requests == 0 {
		cfg.Requests = 200
	}
	if cfg.App == nil {
		cfg.App = App(false)
	}
	return webrick.Run(cfg)
}
