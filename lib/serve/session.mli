(** The daemon's session registry: a warm, LRU-bounded cache of parsed
    netlists shared read-only by every worker.

    This is the point of a persistent server — re-requesting the same
    circuit skips the parse {e and} the lazy topology computation:
    every netlist is {!Sttc_netlist.Netlist.warm}ed before it enters
    the cache (PR 3's read-only sharing discipline), so worker domains
    can use a cached netlist concurrently without racing its lazy
    caches.

    Keys are content-addressed — the benchmark name for {!Request.Named}
    sources, a digest of the .bench text (plus design name) for
    {!Request.Inline} ones — so two clients shipping the same netlist
    text share one entry.

    Each entry also memoizes the per-design baseline of its netlist
    ({!Sttc_core.Ppa.baseline}: base STA, activity, power and area,
    computed on first use by a protect request), so repeated requests on
    a warm entry skip the base analyses entirely.

    Metrics: [serve.cache_hits], [serve.cache_misses],
    [serve.cache_evictions], [serve.baseline_cache_hits],
    [serve.baseline_cache_misses]. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty registry holding at most [capacity] netlists (default 32;
    least-recently-used entries are evicted past that).  [capacity <= 0]
    disables caching entirely — every request parses from scratch, the
    cold baseline the serve benchmark compares against. *)

val netlist : t -> Request.source -> (Sttc_netlist.Netlist.t, string) result
(** Resolve a source to a parsed, warmed netlist — from cache when
    possible.  Thread-safe; parsing happens outside the registry lock,
    so a slow parse never blocks cache hits.  Errors are unknown
    benchmark names or .bench parse failures. *)

val baseline :
  t ->
  Request.source ->
  Sttc_netlist.Netlist.t ->
  Sttc_tech.Library.t ->
  Sttc_core.Ppa.baseline
(** [baseline t source nl library] is the per-design baseline of a
    netlist previously resolved with {!netlist}, priced with [library],
    memoized on its cache entry.  The memo is used only when
    {!Sttc_core.Ppa.built_for} holds for this exact netlist value and
    [library], so a stale or evicted entry, or one priced with another
    library, can never serve a wrong baseline — it just recomputes (and
    the entry keeps the latest library's).  Thread-safe; the analyses
    run outside the lock.  Counters: [serve.baseline_cache_hits] /
    [serve.baseline_cache_misses]. *)
