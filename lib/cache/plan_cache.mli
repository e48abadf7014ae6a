(** Persistent on-disk store for compiled plans.

    A production fleet compiles each schema once, not once per
    process: the cache persists {!Engine.Compiled.t} across processes
    so a warm start skips [Classify.profile] entirely — the next
    amortization rung after the in-process session engine.

    {2 Entry format (minconn-plan/6)}

    One file per schema: the plan for schema [S] is named
    [<schema_hash S>.plan], whether it was compiled from [S] or
    patched into [S] from another schema's plan by
    {!Engine.Compiled.apply_deltas} (which gives exactly the plan a
    fresh compile gives). Each file is a five-line textual integrity
    envelope followed by the raw [Marshal] payload:

    {v
    minconn-plan/<format_version>
    commit <library build id>
    schema <Compiled.schema_hash of the plan's graph>
    length <payload byte count>
    digest <hex digest of the payload bytes>
    <payload>
    v}

    A load validates the envelope outermost-first (magic/version,
    commit, schema hash, length, checksum) and only then unmarshals,
    so bytes written by a different build — or damaged in any way —
    are rejected before [Marshal.from_string] ever sees them. The
    version is bumped whenever the payload's type layout changes, so
    an entry of an earlier format reads as a [version-mismatch] miss. Every
    rejection is a typed {!miss}: the caller recompiles and
    overwrites, it never panics and never serves a wrong plan.

    {2 Crash atomicity}

    Writes go to a unique [.tmp] sibling and are renamed into place,
    so concurrent readers (and readers after a mid-write crash) see
    either the old entry, the new entry, or no entry — never a torn
    one. The writer checks {!Runtime.Fault.check_write} between
    chunks; the corruption battery arms it to prove the property.

    {2 Eviction}

    Entries are LRU by file mtime ([find] touches its hit); after each
    [store], oldest entries are removed until the directory's [*.plan]
    total fits [max_bytes] again (the entry just written is never
    evicted). Orphaned temp files older than ten minutes are swept on
    the same pass. *)

val format_version : int

val default_commit : string
(** Build identity stamped into (and demanded from) envelopes:
    [MINCONN_COMMIT] when set — recommended for fleets, mirroring the
    bench harness — otherwise a library-version/compiler constant.
    Caution: the fallback cannot see source edits that rebuild the
    same version string; set [MINCONN_COMMIT] wherever plans may cross
    builds. *)

type t
(** A handle on one cache directory. Cheap; holds no open files. *)

val create :
  ?max_bytes:int -> ?commit:string -> dir:string -> unit -> (t, string) result
(** Make [dir] (and parents) and probe that it is a writable
    directory. [Error msg] when it cannot be created or written —
    callers degrade to uncached compilation. [max_bytes] (default
    256 MiB) caps the [*.plan] bytes kept after a store; [commit]
    (default {!default_commit}) is stamped into and required of every
    envelope. *)

val dir : t -> string
val max_bytes : t -> int

(** Why a lookup did not produce a plan. Every constructor is a cold
    miss: recompile, then [store] to overwrite the bad entry. *)
type miss =
  | Absent  (** no entry for this schema *)
  | Version_mismatch  (** magic line from another format version *)
  | Commit_mismatch  (** entry written by a different library build *)
  | Schema_mismatch
      (** envelope or payload belongs to a different schema (renamed
          file, hash collision) *)
  | Truncated  (** header or payload cut short, including empty files *)
  | Checksum_mismatch  (** payload bytes damaged (bit flips) *)
  | Unreadable of string
      (** unreadable file, malformed header, or a checksummed payload
          the current build cannot unmarshal *)

val miss_name : miss -> string
(** Stable lower-kebab name for logs and metrics. *)

val entry_path : t -> Bipartite.Bigraph.t -> string
(** Where this schema's entry lives (whether or not it exists). *)

val find :
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  ?hash:string ->
  t ->
  Bipartite.Bigraph.t ->
  (Engine.Compiled.t, miss) result
(** Validate and load the entry for this schema. [hash], when the
    caller already holds it, must be the schema's
    {!Engine.Compiled.schema_hash}; it is computed otherwise. On a hit the
    loaded plan's graph is checked equal to the requested graph (belt
    and braces over the hash) and the entry's mtime is touched for
    LRU. Records a ["plan_cache"] span (op/outcome/reason attrs) and
    bumps [cache.hit] or [cache.miss]. Never raises on bad entries. *)

val store :
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  ?hash:string ->
  t ->
  Engine.Compiled.t ->
  (unit, string) result
(** Write the plan atomically (temp + rename), then evict LRU entries
    over [max_bytes]. The entry is named by the plan's own schema
    hash ([hash], as for {!find}). [Error msg] on I/O failure —
    callers treat the cache as best-effort. Bumps [cache.store] and
    [cache.evict] (per evicted entry); records a ["plan_cache"] span.
    Re-raises {!Runtime.Fault.Injected_crash} without cleaning its
    temp file, by design (see {!Runtime.Fault.check_write}). *)

val find_or_compile :
  ?trace:Observe.Trace.t ->
  ?metrics:Observe.Metrics.t ->
  ?cache:t ->
  ?deltas:Bipartite.Delta.op list ->
  Bipartite.Bigraph.t ->
  Engine.Compiled.t * [ `Hit | `Miss | `Patched ]
(** The serving entry point. The schema of record is [g] evolved by
    [deltas] (default [[]]: [g] itself), and the lookup prefers
    cheaper plans first: that schema's own entry ([`Hit],
    classification skipped entirely) → with [deltas], [g]'s entry
    patched through [Compiled.apply_deltas], counted in
    [cache.patched] ([`Patched]) → a compile of the schema of record
    ([`Miss]). Without a cache it compiles; with one, a plan it
    builds gets a best-effort {!store} under its own schema hash.
    [Invalid_argument] when the deltas do not apply to [g] — validate
    with [Delta.apply_all] first when the sequence is untrusted. *)

val entries : t -> (string * int) list
(** [(schema_hash, bytes)] of current entries, least recently used
    first. Test and tooling support. *)

val total_bytes : t -> int
(** Sum of [*.plan] sizes currently in the directory. *)
