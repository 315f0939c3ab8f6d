package bugs

import "repro/internal/vm"

// Pbzip2 is the use-after-free/segfault of Fig. 1: the main thread frees
// and nulls the queue's mutex while the consumer may still be unlocking it.
var Pbzip2 = register(&Bug{
	Name: "pbzip2", Software: "Pbzip2", Version: "0.9.4", BugID: "N/A", RealLOC: 1492,
	Class: "concurrency, segmentation fault", Concurrency: true,
	Fix: "introduce synchronization so main cannot free the mutex before consumers are done (the fix shipped four months after the report)",
	Source: `struct queue { int* mut; int size; };
global struct queue* fifo;
int compress(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 7 + 3) % 11;
	}
	return acc;
}
void worker(int n) {
	int r = compress(n);
}
void cons(int arg) {
	struct queue* f = fifo;
	unlock(f->mut);
}
int main() {
	int w1 = spawn(worker, 1500);
	int w2 = spawn(worker, 1500);
	join(w1);
	join(w2);
	fifo = malloc(sizeof(queue));
	fifo->mut = malloc(8);
	fifo->size = 7;
	int t = spawn(cons, 0);
	free(fifo->mut);
	fifo->mut = null;
	join(t);
	return 0;
}`,
	FaultKinds: []vm.FaultKind{vm.FaultNullDeref, vm.FaultUseAfterFree},
	IdealLines: []string{
		"struct queue* f = fifo;",
		"unlock(f->mut);",
		"fifo = malloc(sizeof(queue));",
		"fifo->mut = malloc(8);",
		"free(fifo->mut);",
		"fifo->mut = null;",
	},
	IdealOrder: [][2]string{
		{"fifo->mut = null;", "unlock(f->mut);"},
		{"struct queue* f = fifo;", "unlock(f->mut);"},
		{"fifo->mut = malloc(8);", "free(fifo->mut);"},
	},
	PreemptMean: 3, Endpoints: 30,
})

// Apache1 is bug #45605: the fdqueue idlers counter is incremented and
// decremented without atomicity (WWR); a lost increment drives the
// counter negative.
var Apache1 = register(&Bug{
	Name: "apache-1", Software: "Apache httpd", Version: "2.2.9", BugID: "45605", RealLOC: 224533,
	Class: "concurrency, atomicity violation (WWR)", Concurrency: true,
	Fix: "use atomic increment/decrement for the idlers counter",
	Source: `global int idlers = 0;
int handle(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 13 + 7) % 17;
	}
	return acc;
}
void serve(int n) {
	int r = handle(n);
}
void worker(int n) {
	int i = idlers;
	i = i + 1;
	idlers = i;
	int w = handle(n);
	int j = idlers;
	j = j - 1;
	idlers = j;
	assert(idlers >= 0);
}
int main() {
	int s1 = spawn(serve, 1400);
	int s2 = spawn(serve, 1400);
	join(s1);
	join(s2);
	int t1 = spawn(worker, 120);
	int t2 = spawn(worker, 120);
	join(t1);
	join(t2);
	return idlers;
}`,
	FaultKinds: []vm.FaultKind{vm.FaultAssert},
	IdealLines: []string{
		"int i = idlers;",
		"i = i + 1;",
		"idlers = i;",
		"int j = idlers;",
		"j = j - 1;",
		"idlers = j;",
		"assert(idlers >= 0);",
	},
	IdealOrder: [][2]string{
		{"int i = idlers;", "idlers = i;"},
		{"idlers = j;", "assert(idlers >= 0);"},
	},
	PreemptMean: 2, Endpoints: 30,
})

// Apache2 is bug #25520: two request threads append to the shared log
// buffer with an unsynchronized position counter (WW race); interleaved
// writes corrupt the log.
var Apache2 = register(&Bug{
	Name: "apache-2", Software: "Apache httpd", Version: "2.0.48", BugID: "25520", RealLOC: 169747,
	Class: "concurrency, data race (WW)", Concurrency: true,
	Fix: "protect the log buffer position with a mutex so entries cannot be overwritten",
	Source: `global int* logbuf;
global int logpos = 0;
int handle(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 31 + 5) % 23;
	}
	return acc;
}
void logger(int n) {
	for (int k = 0; k < n; k++) {
		int w = handle(45);
		int p = logpos;
		logbuf[p] = k + 1;
		logpos = p + 1;
	}
}
void serve(int n) {
	int r = handle(n);
}
int main() {
	logbuf = malloc(1600);
	int s1 = spawn(serve, 1400);
	int s2 = spawn(serve, 1400);
	join(s1);
	join(s2);
	int t1 = spawn(logger, 18);
	int t2 = spawn(logger, 18);
	join(t1);
	join(t2);
	assert(logpos == 36);
	return logpos;
}`,
	FaultKinds: []vm.FaultKind{vm.FaultAssert},
	IdealLines: []string{
		"for (int k = 0; k < n; k++) {",
		"int p = logpos;",
		"logpos = p + 1;",
		"assert(logpos == 36);",
	},
	IdealOrder: [][2]string{
		{"int p = logpos;", "logpos = p + 1;"},
		{"logpos = p + 1;", "assert(logpos == 36);"},
	},
	PreemptMean: 2, Endpoints: 30,
})

// Apache3 is bug #21287 (Fig. 8): the decrement-check-free triplet on the
// cache object's reference count is not atomic (RWR), so two threads can
// both observe zero and both free the object.
var Apache3 = register(&Bug{
	Name: "apache-3", Software: "Apache httpd", Version: "2.0.48", BugID: "21287", RealLOC: 169747,
	Class: "concurrency, double free (RWR)", Concurrency: true,
	Fix: "execute the decrement-check-free triplet atomically",
	Source: `struct object { int refcnt; int complete; int* data; };
global struct object* obj;
int handle(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 13 + 7) % 17;
	}
	return acc;
}
void serve(int n) {
	int r = handle(n);
}
void decref(int arg) {
	if (obj->complete == 0) {
		int r = obj->refcnt;
		r = r - 1;
		obj->refcnt = r;
		int pause = handle(9);
		if (obj->refcnt == 0) {
			free(obj->data);
		}
	}
}
int main() {
	int s1 = spawn(serve, 1300);
	int s2 = spawn(serve, 1300);
	join(s1);
	join(s2);
	obj = malloc(sizeof(object));
	obj->refcnt = 2;
	obj->complete = 0;
	obj->data = malloc(16);
	int t1 = spawn(decref, 0);
	int t2 = spawn(decref, 0);
	join(t1);
	join(t2);
	return 0;
}`,
	FaultKinds: []vm.FaultKind{vm.FaultDoubleFree},
	// No sketch over TestVerdictTable's 20 seeds shows "r = r - 1;", a
	// frame-only statement between the refcnt load and store, so this
	// row reads 0 in the table's full-coverage column whatever the
	// diagnosis does.
	IdealLines: []string{
		"if (obj->complete == 0) {",
		"int r = obj->refcnt;",
		"r = r - 1;",
		"obj->refcnt = r;",
		"if (obj->refcnt == 0) {",
		"free(obj->data);",
		"obj->refcnt = 2;",
		"obj->data = malloc(16);",
	},
	IdealOrder: [][2]string{
		{"int r = obj->refcnt;", "free(obj->data);"},
		{"obj->refcnt = r;", "if (obj->refcnt == 0) {"},
	},
	PreemptMean: 2, Endpoints: 30,
})

// Apache4 is bug #21285: a cache entry is freed by the expiry path while
// a request thread still holds a pointer into it (use after free).
var Apache4 = register(&Bug{
	Name: "apache-4", Software: "Apache httpd", Version: "2.0.46", BugID: "21285", RealLOC: 168574,
	Class: "concurrency, use after free", Concurrency: true,
	Fix: "reference-count cache entries so expiry cannot free an entry in use",
	Source: `struct entry { int key; int* data; };
global struct entry* cache;
global int hits = 0;
int handle(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 11 + 3) % 13;
	}
	return acc;
}
void reader(int arg) {
	struct entry* e = cache;
	int w = handle(60);
	hits = hits + e->key;
}
void expire(int arg) {
	int w = handle(55);
	free(cache);
}
void expire_warm(int n) {
	int r = handle(n);
}
int main() {
	int s1 = spawn(expire_warm, 1400);
	int s2 = spawn(expire_warm, 1400);
	join(s1);
	join(s2);
	cache = malloc(sizeof(entry));
	cache->key = 5;
	cache->data = malloc(16);
	int r = spawn(reader, 0);
	int x = spawn(expire, 0);
	join(r);
	join(x);
	return hits;
}`,
	FaultKinds: []vm.FaultKind{vm.FaultUseAfterFree},
	IdealLines: []string{
		"struct entry* e = cache;",
		"hits = hits + e->key;",
		"cache = malloc(sizeof(entry));",
		"cache->key = 5;",
		"free(cache);",
	},
	IdealOrder: [][2]string{
		{"struct entry* e = cache;", "hits = hits + e->key;"},
		{"free(cache);", "hits = hits + e->key;"},
	},
	PreemptMean: 3, Endpoints: 30,
})

// Cppcheck1 is bug #3238: the token-list pattern matcher dereferences the
// token after "if" without checking that the list continues; an input
// ending right after "if" crashes it.
var Cppcheck1 = register(&Bug{
	Name: "cppcheck-1", Software: "Cppcheck", Version: "1.52", BugID: "3238", RealLOC: 86215,
	Class: "sequential, null dereference",
	Fix:   "check Token::next() for null before matching the pattern tail",
	Source: `struct token { int ch; struct token* next; };
global struct token* head;
global int checks = 0;
struct token* tokenize(string s) {
	struct token* first = null;
	struct token* last = null;
	int i = 0;
	int c = s[i];
	while (c != 0) {
		struct token* t = malloc(sizeof(token));
		t->ch = c;
		t->next = null;
		if (first == null) { first = t; } else { last->next = t; }
		last = t;
		i = i + 1;
		c = s[i];
	}
	return first;
}
void check_if(struct token* tok) {
	while (tok != null) {
		if (tok->ch == 105) {
			struct token* n = tok->next;
			checks = checks + n->next->ch;
		}
		tok = tok->next;
	}
}
int preprocess(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 41 + 17) % 37;
	}
	return acc;
}
int main() {
	int warm = preprocess(6000);
	string src = input_str(0);
	head = tokenize(src);
	check_if(head);
	return checks;
}`,
	Workloads: []vm.Workload{
		{Strs: []string{"while(x) while(y) z"}},
		{Strs: []string{"for(a) b = c + d"}},
		{Strs: []string{"return x + y"}},
		{Strs: []string{"count the last if"}}, // ends right after "if": crash
	},
	FaultKinds: []vm.FaultKind{vm.FaultNullDeref},
	IdealLines: []string{
		"if (tok->ch == 105) {",
		"struct token* n = tok->next;",
		"checks = checks + n->next->ch;",
		"string src = input_str(0);",
	},
	IdealOrder: [][2]string{
		{"struct token* n = tok->next;", "checks = checks + n->next->ch;"},
	},
	Endpoints: 20,
})

// Cppcheck2 is bug #2782: nesting depth is used as an array index without
// a bound check; deeply nested input indexes past the array.
var Cppcheck2 = register(&Bug{
	Name: "cppcheck-2", Software: "Cppcheck", Version: "1.48", BugID: "2782", RealLOC: 76009,
	Class: "sequential, out of bounds",
	Fix:   "bound the nesting depth before indexing the per-depth counters",
	Source: `global int* counts;
int preprocess(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 43 + 19) % 41;
	}
	return acc;
}
int main() {
	int warm = preprocess(6000);
	counts = malloc(80);
	string s = input_str(0);
	int n = strlen(s);
	int depth = 0;
	int i = 0;
	while (i < n) {
		int c = s[i];
		if (c == 40) { depth = depth + 1; }
		if (c == 41) { depth = depth - 1; }
		counts[depth] = counts[depth] + 1;
		i = i + 1;
	}
	return counts[0];
}`,
	Workloads: []vm.Workload{
		{Strs: []string{"f(a(b))"}},
		{Strs: []string{"((x)) + ((y))"}},
		{Strs: []string{"plain text"}},
		{Strs: []string{"((((((((((deep))))))))))"}}, // depth 10: off the end
	},
	FaultKinds: []vm.FaultKind{vm.FaultOutOfBounds},
	IdealLines: []string{
		"int depth = 0;",
		"while (i < n) {",
		"int c = s[i];",
		"if (c == 40) { depth = depth + 1; }",
		"if (c == 41) { depth = depth - 1; }",
		"counts[depth] = counts[depth] + 1;",
		"string s = input_str(0);",
		"counts = malloc(80);",
	},
	IdealOrder: [][2]string{
		{"counts = malloc(80);", "counts[depth] = counts[depth] + 1;"},
	},
	Endpoints: 20,
})

// Curl is bug #965 (Fig. 7): a URL with unbalanced braces leaves
// urls->current null and strlen(NULL) segfaults.
var Curl = register(&Bug{
	Name: "curl", Software: "Curl", Version: "7.21", BugID: "965", RealLOC: 81658,
	Class: "sequential, data-dependent segfault",
	Fix:   "reject URLs with unbalanced braces during glob parsing",
	Source: `global string current;
int transfer(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 37 + 13) % 29;
	}
	return acc;
}
int next_url(string urls) {
	int depth = 0;
	int i = 0;
	int c = urls[0];
	while (c != 0) {
		if (c == 123) { depth = depth + 1; }
		if (c == 125) { depth = depth - 1; }
		i = i + 1;
		c = urls[i];
	}
	if (depth > 0) {
		current = null;
	}
	return strlen(current);
}
int main() {
	int warm = transfer(6000);
	string url = input_str(0);
	current = url;
	int n = next_url(url);
	return n;
}`,
	Workloads: []vm.Workload{
		{Strs: []string{"http://site/{alpha,beta}/file"}},
		{Strs: []string{"http://site/{}{"}}, // unbalanced: crash
		{Strs: []string{"http://site/{a}{b}"}},
		{Strs: []string{"http://site/plain"}},
	},
	FaultKinds: []vm.FaultKind{vm.FaultNullDeref},
	IdealLines: []string{
		"string url = input_str(0);",
		"current = url;",
		"if (depth > 0) {",
		"current = null;",
		"return strlen(current);",
	},
	IdealOrder: [][2]string{
		{"current = url;", "current = null;"},
		{"current = null;", "return strlen(current);"},
	},
	Endpoints: 20,
})

// Transmission is bug #1818: an I/O worker uses the session handle before
// the initializer publishes it (order violation / RW race).
var Transmission = register(&Bug{
	Name: "transmission", Software: "Transmission", Version: "1.42", BugID: "1818", RealLOC: 59977,
	Class: "concurrency, order violation (RW)", Concurrency: true, SingleThreadSketch: true,
	Fix: "initialize the session fully before starting the I/O worker",
	Source: `struct session { int* bandwidth; int peers; };
global struct session* sess;
global int rate = 0;
int handle(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 19 + 1) % 7;
	}
	return acc;
}
void io_worker(int arg) {
	int w = handle(40);
	struct session* s = sess;
	rate = s->bandwidth[0];
}
void net_worker(int n) {
	int r = handle(n);
}
int main() {
	int s1 = spawn(net_worker, 1400);
	int s2 = spawn(net_worker, 1400);
	join(s1);
	join(s2);
	int t = spawn(io_worker, 0);
	int w = handle(42);
	sess = malloc(sizeof(session));
	sess->bandwidth = malloc(8);
	sess->bandwidth[0] = 100;
	join(t);
	return rate;
}`,
	FaultKinds: []vm.FaultKind{vm.FaultNullDeref},
	// No sketch over TestVerdictTable's 20 seeds shows the racing write
	// "sess = malloc(sizeof(session));": in a failing run it has not run
	// before the crash (SingleThreadSketch). So this row reads 0 in the
	// table's full-coverage column whatever the diagnosis does.
	IdealLines: []string{
		"struct session* s = sess;",
		"rate = s->bandwidth[0];",
		"sess = malloc(sizeof(session));",
	},
	IdealOrder: [][2]string{
		{"struct session* s = sess;", "rate = s->bandwidth[0];"},
	},
	PreemptMean: 3, Endpoints: 30,
})

// SQLite is bug #1672: a shared-cache page is released by one connection
// while another is still reading it (order violation, use after free).
var SQLite = register(&Bug{
	Name: "sqlite", Software: "SQLite", Version: "3.3.3", BugID: "1672", RealLOC: 47150,
	Class: "concurrency, order violation (WR)", Concurrency: true,
	Fix: "hold the shared-cache lock across the page read",
	Source: `global int* page;
global int sum = 0;
int handle(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 29 + 11) % 19;
	}
	return acc;
}
void reader(int arg) {
	int w = handle(58);
	sum = sum + page[0];
}
void releaser(int arg) {
	int w = handle(55);
	free(page);
}
void query_worker(int n) {
	int r = handle(n);
}
int main() {
	int q1 = spawn(query_worker, 1400);
	int q2 = spawn(query_worker, 1400);
	join(q1);
	join(q2);
	page = malloc(64);
	page[0] = 9;
	int r = spawn(reader, 0);
	int x = spawn(releaser, 0);
	join(r);
	join(x);
	return sum;
}`,
	FaultKinds: []vm.FaultKind{vm.FaultUseAfterFree},
	IdealLines: []string{
		"sum = sum + page[0];",
		"free(page);",
		"page = malloc(64);",
		"page[0] = 9;",
	},
	IdealOrder: [][2]string{
		{"free(page);", "sum = sum + page[0];"},
	},
	PreemptMean: 3, Endpoints: 30,
})

// Memcached is bug #127: the item reference count is updated with
// non-atomic read-modify-write sequences (RWW); an eviction racing with a
// get frees the item while the getter still uses it.
var Memcached = register(&Bug{
	Name: "memcached", Software: "Memcached", Version: "1.4.4", BugID: "127", RealLOC: 8182,
	Class: "concurrency, atomicity violation (RWW)", Concurrency: true,
	Fix: "use atomic reference-count updates (the fix introduced refcount CAS loops)",
	Source: `struct item { int refcnt; int* data; };
global struct item* it;
global int got = 0;
int handle(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) {
		acc = acc + (i * 23 + 9) % 31;
	}
	return acc;
}
void getter(int arg) {
	int r = it->refcnt;
	r = r + 1;
	it->refcnt = r;
	got = it->data[0];
	int r2 = it->refcnt;
	r2 = r2 - 1;
	it->refcnt = r2;
}
void evictor(int arg) {
	int e1 = it->refcnt;
	e1 = e1 - 1;
	it->refcnt = e1;
	if (it->refcnt == 0) {
		free(it->data);
	}
}
void conn_worker(int n) {
	int r = handle(n);
}
int main() {
	int c1 = spawn(conn_worker, 1400);
	int c2 = spawn(conn_worker, 1400);
	join(c1);
	join(c2);
	it = malloc(sizeof(item));
	it->refcnt = 1;
	it->data = malloc(16);
	it->data[0] = 3;
	int g = spawn(getter, 0);
	int e = spawn(evictor, 0);
	join(g);
	join(e);
	return got;
}`,
	FaultKinds: []vm.FaultKind{vm.FaultUseAfterFree},
	IdealLines: []string{
		"int r = it->refcnt;",
		"it->refcnt = r;",
		"int e1 = it->refcnt;",
		"it->refcnt = e1;",
		"if (it->refcnt == 0) {",
		"got = it->data[0];",
		"free(it->data);",
		"it = malloc(sizeof(item));",
		"it->refcnt = 1;",
		"it->data = malloc(16);",
		"it->data[0] = 3;",
	},
	IdealOrder: [][2]string{
		{"free(it->data);", "got = it->data[0];"},
	},
	PreemptMean: 2, Endpoints: 30,
})

// Deadlock is the lock-order inversion from examples/deadlock, promoted
// into the registered suite: one thread locks giant then cache, the
// other locks cache then giant, and some schedules interleave the two
// acquisitions so every thread blocks forever. Gist handles failures
// beyond crashes — the VM turns the hang into a failure report whose
// identity includes the other blocked thread's program counter, and the
// sketch shows the lock statements of the cycle.
var Deadlock = register(&Bug{
	Name: "deadlock", Software: "Cache server (lock-order inversion)", Version: "1.0", BugID: "N/A", RealLOC: 58,
	Class: "concurrency, deadlock", Concurrency: true,
	Fix: "acquire giant and cache in a single global order everywhere",
	Source: `global int giant = 0;
global int cache = 0;
global int hits = 0;
int work(int n) {
	int acc = 0;
	for (int i = 0; i < n; i++) { acc = acc + i % 3; }
	return acc;
}
void request(int arg) {
	lock(&giant); int rg = 1;
	int w1 = work(8);
	lock(&cache); int rc = 1;
	hits = hits + 1;
	unlock(&cache);
	unlock(&giant);
}
void evict(int arg) {
	lock(&cache); int ec = 1;
	int w2 = work(8);
	lock(&giant); int eg = 1;
	hits = hits - 1;
	unlock(&giant);
	unlock(&cache);
}
int main() {
	int warm = work(2500);
	int r = spawn(request, 0);
	int s = work(10);
	int e = spawn(evict, 0);
	join(r);
	join(e);
	return hits;
}`,
	FaultKinds: []vm.FaultKind{vm.FaultDeadlock},
	IdealLines: []string{
		"lock(&giant); int rg = 1;",
		"lock(&cache); int rc = 1;",
		"lock(&cache); int ec = 1;",
		"lock(&giant); int eg = 1;",
	},
	IdealOrder: [][2]string{
		{"lock(&giant); int rg = 1;", "lock(&giant); int eg = 1;"},
		{"lock(&cache); int ec = 1;", "lock(&cache); int rc = 1;"},
	},
	PreemptMean: 3, Endpoints: 30,
})
