module Storage = Legodb_relational.Storage
module Rschema = Legodb_relational.Rschema
module Rtype = Legodb_relational.Rtype
module Wire = Legodb_wire.Wire
module Mapping = Legodb_mapping.Mapping
module Xq_translate = Legodb_mapping.Xq_translate
module Shred = Legodb_mapping.Shred
module Logical = Legodb_optimizer.Logical
module Optimizer = Legodb_optimizer.Optimizer
module Cost = Legodb_optimizer.Cost
module Executor = Legodb_optimizer.Executor
module Xq_ast = Legodb_xquery.Xq_ast
module Xq_parse = Legodb_xquery.Xq_parse
module Par = Legodb_search.Par

(* a statement's blocks, each planned on a snapshot's statistics and
   compiled against its store *)
type compiled = Executor.compiled list

(* One serving snapshot: the frozen store plus the plans compiled on
   its statistics and against its rows, by template id (guarded by the
   server lock).  A publish swaps in a fresh snap, so the old plans are
   dropped with the old snapshot and each template recompiles once, on
   first use. *)
type snap = {
  db : Storage.t;
  plans : (int, compiled) Hashtbl.t;
}

(* A statement template: the FLWR body with its WHERE constants lifted
   into parameter slots, translated once for the server's lifetime
   (translation depends only on the mapping, which never changes).
   [id] numbers templates in insertion order. *)
type template = { id : int; lq : Logical.query }

(* Templates are keyed on the lifted body itself, by structural
   equality: no request prints its statement, and statements differing
   only in their constants (values or kinds) share one entry.  The
   hash looks deep enough that templates differing past their first
   few paths still land in different buckets. *)
module Templates = Hashtbl.Make (struct
  type t = Xq_ast.flwr

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

(* In front of them, texts find their template by shape key
   ({!Xq_parse.shape}): the text with its WHERE constants masked.  Equal
   keys lift to equal bodies, so a key maps to one template; two
   spellings of one statement may hold two keys, never two templates. *)
module Shapes = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type reply = {
  rows : Rtype.value list list;
  cached : bool;
  latency_s : float;
}

type stats = {
  served : int;
  cache_hits : int;
  cache_misses : int;
  snapshot_rows : int;
  snapshots_published : int;
  pending_appends : int;
  wal_appends : int;
  wal_fsyncs : int;
  wal_groups : int;
  wal_max_group : int;
  batches : int;
  max_batch : int;
}

(* durability state: the WAL every acknowledged append is fsynced to,
   and the directory whose snapshot each publish rewrites.  After a WAL
   I/O failure the server is fail-stop for writes ([broken]): the
   failed append was never acknowledged, and acknowledging anything
   after it would leave a hole for replay. *)
type durable = {
  dir : string;
  dfs : Wire.fs;
  wal : Wal.t;
  mutable broken : string option;
}

type t = {
  mapping : Mapping.t;
  working : Storage.t;
  snap : snap Atomic.t;
  lock : Serve_lock.t;
  (* guarded by [lock]: *)
  templates : template Templates.t;
  shapes : template Shapes.t;
  mutable shape_bytes : int;  (* the keys' total length *)
  mutable served : int;
  mutable hits : int;
  mutable misses : int;
  mutable published : int;
  mutable pending : int;
  mutable batches : int;
  mutable max_batch : int;
  jobs : int;
  params : Cost.params;
  clock : unit -> float;
  mutable dur : durable option;
}

(* The template table never shrinks, so it is capped: a statement
   whose template does not fit is compiled like [~use_cache:false].
   Nothing is ever flushed — the templates already in keep hitting. *)
let max_templates = 4096

(* The shape table never shrinks either: at most one entry per
   template's worth of room and 1 MiB of keys.  A text whose shape does
   not fit takes the parse path. *)
let max_shape_bytes = 1 lsl 20

let fresh_snap db = { db; plans = Hashtbl.create 16 }

let make ?(jobs = 0) ?(params = Cost.default_params)
    ?(clock = Unix.gettimeofday) mapping db =
  if Storage.is_frozen db then
    invalid_arg "Serve.create: the working store must not be frozen";
  let jobs = if jobs <= 0 then Par.default_jobs () else jobs in
  Par.ensure_workers ~jobs;
  let frozen = Storage.freeze db in
  {
    mapping;
    working = db;
    snap = Atomic.make (fresh_snap frozen);
    lock = Serve_lock.create ();
    templates = Templates.create 64;
    shapes = Shapes.create 64;
    shape_bytes = 0;
    served = 0;
    hits = 0;
    misses = 0;
    published = 0;
    pending = 0;
    batches = 0;
    max_batch = 0;
    jobs;
    params;
    clock;
    dur = None;
  }

let write_snapshot_of t ~fs ~dir ~last_seq frozen =
  Wal.write_snapshot ~fs ~path:(Wal.snapshot_file dir)
    ~schema:t.mapping.Mapping.schema ~ordered:t.mapping.Mapping.ordered
    ~last_seq frozen

let create ?jobs ?params ?clock ?data_dir ?(fs = Wire.real_fs) mapping db =
  let t = make ?jobs ?params ?clock mapping db in
  (match data_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      if Sys.file_exists (Wal.snapshot_file dir) then
        invalid_arg
          (Printf.sprintf
             "Serve.create: %s already holds a snapshot (recover it instead)"
             dir);
      (* the initial freeze is published state: snapshot it before the
         first append so recovery never has less than a create saw *)
      write_snapshot_of t ~fs ~dir ~last_seq:0 (Atomic.get t.snap).db;
      let wal = Wal.create ~fs ~next_seq:1 (Wal.wal_file dir) in
      t.dur <- Some { dir; dfs = fs; wal; broken = None });
  t

let jobs t = t.jobs
let snapshot t = (Atomic.get t.snap).db

let compile_blocks ~params db (lq : Logical.query) : compiled =
  let cat = Storage.catalog db in
  List.map
    (fun (b : Logical.block) ->
      Executor.compile db
        (Optimizer.optimize_block ~params cat b).Optimizer.plan
        b.Logical.out)
    lq.Logical.blocks

(* Caller holds the lock: [tr] with its plans on [snap] when they are
   compiled (a hit, counted), or with [None]. *)
let probe t (snap : snap) tr =
  match Hashtbl.find_opt snap.plans tr.id with
  | Some _ as hit ->
      t.hits <- t.hits + 1;
      (tr, hit)
  | None -> (tr, None)

(* the template of [q], whose lifted body is [body], probed on [snap]
   in the same lock acquisition: translated once, or [None] when the
   table is full without it.  Untranslatable escapes to the caller
   before anything is cached. *)
let template t snap (q : Xq_ast.t) body =
  let known, room =
    Serve_lock.with_lock t.lock (fun () ->
        match Templates.find_opt t.templates body with
        | Some tr -> (Some (probe t snap tr), true)
        | None -> (None, Templates.length t.templates < max_templates))
  in
  match known with
  | Some _ -> known
  | None when not room -> None
  | None ->
      let lq = Xq_translate.translate t.mapping { q with Xq_ast.body } in
      Serve_lock.with_lock t.lock (fun () ->
          match Templates.find_opt t.templates body with
          | Some tr -> Some (probe t snap tr)  (* another worker won the race *)
          | None when Templates.length t.templates >= max_templates -> None
          | None ->
              let tr = { id = Templates.length t.templates; lq } in
              Templates.add t.templates body tr;
              Some (tr, None))

(* the plans a probe found, or compiled now *)
let plans_for t (snap : snap) (tr, hit) =
  match hit with
  | Some p -> (p, true)
  | None ->
      (* compile outside the lock: join ordering is the expensive part
         and must not serialize the whole batch; first writer wins, and
         only it counts the miss — a worker that lost the race runs the
         stored plans, a hit, so the counts do not depend on
         scheduling *)
      let compiled = compile_blocks ~params:t.params snap.db tr.lq in
      Serve_lock.with_lock t.lock (fun () ->
          match Hashtbl.find_opt snap.plans tr.id with
          | Some p ->
              t.hits <- t.hits + 1;
              (p, true)
          | None ->
              Hashtbl.replace snap.plans tr.id compiled;
              t.misses <- t.misses + 1;
              (compiled, false))

exception Timed_out

(* cooperative per-request deadline: the clock is consulted before
   every block of the plan, so a request that blows its budget degrades
   to a structured [Error] slot at the next block boundary instead of
   wedging its worker forever (a block itself is never interrupted —
   granularity is one block's execution) *)
let run_blocks t ~deadline ~args plans =
  List.concat_map
    (fun block ->
      (match deadline with
      | Some d when t.clock () >= d -> raise Timed_out
      | _ -> ());
      fst (Executor.run ~params:args block))
    plans

(* [found]'s plans, [consts] bound, and whether the plans were cached *)
let bind t snap found consts =
  let plans, hit = plans_for t snap found in
  (plans, Array.map Xq_translate.const_value consts, hit)

(* the reference path: [q] translated and compiled afresh *)
let uncached t (snap : snap) q =
  let lq = Xq_translate.translate t.mapping q in
  (compile_blocks ~params:t.params snap.db lq, [||], false)

(* over the template cap: the reference path, counted as a miss since
   it compiled *)
let over_cap t snap q =
  let r = uncached t snap q in
  Serve_lock.with_lock t.lock (fun () -> t.misses <- t.misses + 1);
  r

(* run the prepared plans and reply, counting the request *)
let execute t ~t0 ~deadline (plans, args, cached) =
  let rows = run_blocks t ~deadline ~args plans in
  Serve_lock.with_lock t.lock (fun () -> t.served <- t.served + 1);
  { rows; cached; latency_s = t.clock () -. t0 }

let query_on t (snap : snap) ?(use_cache = true) ?deadline (q : Xq_ast.t) =
  let t0 = t.clock () in
  let prepared =
    if not use_cache then uncached t snap q
    else
      let body, consts = Xq_ast.lift q.Xq_ast.body in
      match template t snap q body with
      | Some found -> bind t snap found consts
      | None -> over_cap t snap q
  in
  execute t ~t0 ~deadline prepared

(* Statements by text are parsed under this name, the one untranslatable
   messages quote. *)
let text_name = "net"

(* Caller holds the lock: remember that texts of shape [key] have
   template [tr], if the table has room. *)
let add_shape t key tr =
  let bytes = t.shape_bytes + String.length key in
  if
    Shapes.length t.shapes < max_templates
    && bytes <= max_shape_bytes
    && not (Shapes.mem t.shapes key)
  then begin
    Shapes.add t.shapes key tr;
    t.shape_bytes <- bytes
  end

let text_on t (snap : snap) ?deadline text =
  let t0 = t.clock () in
  let shape = Xq_parse.shape text in
  let known =
    match shape with
    | None -> None
    | Some (key, consts) ->
        Serve_lock.with_lock t.lock (fun () ->
            match Shapes.find_opt t.shapes key with
            | Some tr -> Some (probe t snap tr, consts)
            | None -> None)
  in
  let prepared =
    match known with
    | Some (found, consts) -> bind t snap found consts
    | None -> (
        let q = Xq_parse.parse ~name:text_name text in
        let body, consts = Xq_ast.lift q.Xq_ast.body in
        match template t snap q body with
        | Some ((tr, _) as found) ->
            (match shape with
            | Some (key, lexed) when lexed = consts ->
                Serve_lock.with_lock t.lock (fun () -> add_shape t key tr)
            | _ -> ());
            bind t snap found consts
        | None -> over_cap t snap q)
  in
  execute t ~t0 ~deadline prepared

let query ?use_cache t q = query_on t (Atomic.get t.snap) ?use_cache q

(* The reply texts of a statement the parser or the translator rejects
   open with these prefixes; [error_kind] is the one reader of them. *)
let parse_error_prefix = "query parse error at offset "
let untranslatable_prefix = "untranslatable: "

type error_kind = Parse_failure | Untranslation | Other_failure

let error_kind text =
  if String.starts_with ~prefix:parse_error_prefix text then Parse_failure
  else if String.starts_with ~prefix:untranslatable_prefix text then
    Untranslation
  else Other_failure

(* The one batch loop: [answer snap ?deadline i] answers request [i]
   of [n] on the batch's snapshot. *)
let run_requests ?timeout_ms t n answer =
  (* the whole batch reads one snapshot: a publish racing the batch
     swaps the snapshot for *later* batches, it never tears this one *)
  let snap = Atomic.get t.snap in
  Serve_lock.with_lock t.lock (fun () ->
      t.batches <- t.batches + 1;
      t.max_batch <- max t.max_batch n);
  let out = Array.make n (Error "unanswered") in
  ignore
    (Par.run_tasks ~jobs:t.jobs n (fun ~worker:_ i ->
         (* each request gets its own budget, from its own start *)
         let deadline =
           Option.map (fun ms -> t.clock () +. (float_of_int ms /. 1000.)) timeout_ms
         in
         out.(i) <-
           (match answer snap ?deadline i with
           | reply -> Ok reply
           | exception Xq_parse.Parse_error { position; message } ->
               Error
                 (Printf.sprintf "%s%d: %s" parse_error_prefix position
                    message)
           | exception Xq_translate.Untranslatable m ->
               Error (untranslatable_prefix ^ m)
           | exception Timed_out ->
               Error
                 (Printf.sprintf "timeout: request exceeded %dms"
                    (Option.value ~default:0 timeout_ms)))));
  out

let run_batch ?timeout_ms t qs =
  run_requests ?timeout_ms t (Array.length qs) (fun snap ?deadline i ->
      query_on t snap ?deadline qs.(i))

let run_texts ?timeout_ms t texts =
  run_requests ?timeout_ms t (Array.length texts) (fun snap ?deadline i ->
      text_on t snap ?deadline texts.(i))

(* run [f] (which inserts into the working store) and stage exactly
   the rows it added in the WAL's open group, so the durable log
   mirrors the in-memory store even when shredding fails partway (the
   partial rows are staged too, and [f]'s failure is returned rather
   than raised so the caller can flush the group first).  Nothing
   touches the disk here: the caller must {!wal_flush} — the ack
   barrier — before acknowledging anything staged.  Caller holds the
   lock. *)
let wal_stage t f =
  match t.dur with
  | None -> ( match f () with () -> Ok () | exception e -> Error e)
  | Some d ->
      (match d.broken with
      | Some m ->
          failwith
            (Printf.sprintf
               "Serve.append: fail-stop after a WAL write failure (%s)" m)
      | None -> ());
      let cat = Storage.catalog t.working in
      let before =
        List.map
          (fun (tbl : Rschema.table) ->
            (tbl.Rschema.tname, Storage.row_count t.working tbl.Rschema.tname))
          cat.Rschema.tables
      in
      let res = match f () with () -> Ok () | exception e -> Error e in
      let added =
        List.filter_map
          (fun (tname, n0) ->
            let n1 = Storage.row_count t.working tname in
            if n1 > n0 then
              Some
                ( tname,
                  List.init (n1 - n0) (fun i -> Storage.get t.working tname (n0 + i))
                )
            else None)
          before
      in
      ignore (Wal.stage d.wal added);
      res

(* commit the open group: one write + one fsync covering everything
   staged since the last flush.  Caller holds the lock. *)
let wal_flush t =
  match t.dur with
  | None -> ()
  | Some d -> (
      try Wal.flush d.wal
      with e ->
        (* the commit unit may be torn on disk; none of the group was
           acknowledged.  Refuse further writes — replay must never
           see a hole. *)
        d.broken <- Some (Printexc.to_string e);
        raise e)

let shred_error = function
  | Shred.Shred_error { path; message } ->
      Printf.sprintf "shredding failed at %s: %s" (String.concat "/" path)
        message
  | e -> Printexc.to_string e

let append t doc =
  Serve_lock.with_lock t.lock (fun () ->
      let res = wal_stage t (fun () -> Shred.shred_into t.working t.mapping doc) in
      wal_flush t;
      match res with
      | Ok () -> t.pending <- t.pending + 1
      | Error e -> raise e)

let append_group t docs =
  Serve_lock.with_lock t.lock (fun () ->
      (* stage every document, then flush once: the whole group rides
         one commit unit — one write, one fsync — and nothing is
         acknowledged until that fsync returns.  A document that fails
         to shred poisons only its own slot (its partial rows are
         staged, mirroring the store, exactly as {!append} logs them)
         — never its neighbors. *)
      let results =
        List.map
          (fun doc ->
            wal_stage t (fun () -> Shred.shred_into t.working t.mapping doc))
          docs
      in
      wal_flush t;
      List.map
        (function
          | Ok () ->
              t.pending <- t.pending + 1;
              Ok ()
          | Error e -> Error (shred_error e))
        results)

let publish t =
  Serve_lock.with_lock t.lock (fun () ->
      (* by construction nothing is staged between appends (both append
         paths flush before returning), but the snapshot must never
         outrun the log — flush defensively before freezing *)
      wal_flush t;
      let frozen = Storage.freeze t.working in
      (* snapshot first, then truncate the log: a crash between the two
         leaves already-snapshotted records in the log, which replay
         skips by sequence number — never a window with neither *)
      (match t.dur with
      | None -> ()
      | Some d ->
          write_snapshot_of t ~fs:d.dfs ~dir:d.dir
            ~last_seq:(Wal.next_seq d.wal - 1) frozen;
          Wal.reset d.wal);
      Atomic.set t.snap (fresh_snap frozen);
      t.published <- t.published + 1;
      t.pending <- 0)

(* ------------------------------------------------------------------ *)
(* recovery                                                            *)
(* ------------------------------------------------------------------ *)

type recovery = {
  r_snapshot_rows : int;
  r_snapshot_seq : int;
  r_replayed : int;
  r_skipped : int;
  r_recovered_seq : int;
  r_torn : string option;
  r_dropped_bytes : int;
}

let recover ?jobs ?params ?clock ?(fs = Wire.real_fs) ?mapping ~dir () =
  let snap = Wal.load_snapshot (Wal.snapshot_file dir) in
  let mapping =
    match mapping with
    | Some m -> m
    | None -> (
        match
          Mapping.of_pschema ~order_columns:snap.Wal.s_ordered snap.Wal.s_schema
        with
        | Ok m -> m
        | Error errs ->
            raise
              (Wal.Corrupt
                 (Printf.sprintf "snapshot schema does not map: %s"
                    (String.concat "; " errs))))
  in
  let db = Storage.create mapping.Mapping.catalog in
  snap.Wal.s_fill db;
  let snapshot_rows = Storage.total_rows db in
  let rep = Wal.replay_file (Wal.wal_file dir) in
  let last = snap.Wal.s_last_seq in
  (* records the snapshot already covers (a crash landed between the
     snapshot rename and the log truncation) are skipped; the rest must
     continue exactly where the snapshot ends *)
  let skipped, applied =
    List.partition (fun (r : Wal.record) -> r.Wal.seq <= last) rep.Wal.records
  in
  (match applied with
  | first :: _ when first.Wal.seq <> last + 1 ->
      raise
        (Wal.Corrupt
           (Printf.sprintf
              "WAL gap: snapshot covers up to record %d but replay continues \
               at %d"
              last first.Wal.seq))
  | _ -> ());
  let recovered_seq =
    List.fold_left (fun _ (r : Wal.record) -> r.Wal.seq) last applied
  in
  (* the snapshot is the published state: freeze it for serving before
     replay, so replayed appends are pending (unpublished) — exactly
     what a never-crashed server shows, where unacked publishes don't
     exist and unpublished appends are invisible to readers *)
  let t = make ?jobs ?params ?clock mapping db in
  List.iter
    (fun (r : Wal.record) ->
      List.iter
        (fun (tname, rows) -> List.iter (Storage.insert t.working tname) rows)
        r.Wal.rows)
    applied;
  t.pending <- List.length applied;
  let wal_path = Wal.wal_file dir in
  let wal =
    if Sys.file_exists wal_path then
      let size = (Unix.stat wal_path).Unix.st_size in
      Wal.reopen ~fs
        ~valid_bytes:(size - rep.Wal.dropped_bytes)
        ~next_seq:(recovered_seq + 1) wal_path
    else
      (* the crash predated the log's creation: the snapshot alone is
         the state *)
      Wal.create ~fs ~next_seq:(recovered_seq + 1) wal_path
  in
  t.dur <- Some { dir; dfs = fs; wal; broken = None };
  ( t,
    {
      r_snapshot_rows = snapshot_rows;
      r_snapshot_seq = last;
      r_replayed = List.length applied;
      r_skipped = List.length skipped;
      r_recovered_seq = recovered_seq;
      r_torn = rep.Wal.torn;
      r_dropped_bytes = rep.Wal.dropped_bytes;
    } )

let data_dir t = Option.map (fun d -> d.dir) t.dur

let pp_recovery fmt r =
  Format.fprintf fmt
    "snapshot: %d rows through record %d; wal: %d replayed as pending, %d \
     already snapshotted, recovered through record %d%s"
    r.r_snapshot_rows r.r_snapshot_seq r.r_replayed r.r_skipped
    r.r_recovered_seq
    (match r.r_torn with
    | None -> ""
    | Some why ->
        Printf.sprintf "; dropped %d-byte torn tail (%s)" r.r_dropped_bytes why)

let stats t =
  Serve_lock.with_lock t.lock (fun () ->
      let w =
        match t.dur with
        | None -> { Wal.appends = 0; fsyncs = 0; groups = 0; max_group = 0 }
        | Some d -> Wal.stats d.wal
      in
      {
        served = t.served;
        cache_hits = t.hits;
        cache_misses = t.misses;
        snapshot_rows = Storage.total_rows (Atomic.get t.snap).db;
        snapshots_published = t.published;
        pending_appends = t.pending;
        wal_appends = w.Wal.appends;
        wal_fsyncs = w.Wal.fsyncs;
        wal_groups = w.Wal.groups;
        wal_max_group = w.Wal.max_group;
        batches = t.batches;
        max_batch = t.max_batch;
      })

(* ------------------------------------------------------------------ *)
(* latency accounting                                                  *)
(* ------------------------------------------------------------------ *)

type summary = {
  n : int;
  wall_s : float;
  qps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

let summarize ~wall_s latencies =
  let n = Array.length latencies in
  if n = 0 then
    { n; wall_s; qps = 0.; p50_ms = 0.; p95_ms = 0.; p99_ms = 0. }
  else begin
    let sorted = Array.copy latencies in
    Array.sort compare sorted;
    (* nearest-rank percentile *)
    let pct q =
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      1000. *. sorted.(max 0 (min (n - 1) (rank - 1)))
    in
    {
      n;
      wall_s;
      qps = (if wall_s > 0. then float_of_int n /. wall_s else 0.);
      p50_ms = pct 0.50;
      p95_ms = pct 0.95;
      p99_ms = pct 0.99;
    }
  end

let pp_summary fmt s =
  Format.fprintf fmt
    "%d requests in %.3fs: %.0f qps, latency p50 %.3fms p95 %.3fms p99 %.3fms"
    s.n s.wall_s s.qps s.p50_ms s.p95_ms s.p99_ms

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "served %d (plan cache: %d hits, %d misses), snapshot %d rows, %d \
     publishes, %d pending appends"
    s.served s.cache_hits s.cache_misses s.snapshot_rows s.snapshots_published
    s.pending_appends;
  if s.batches > 0 then
    Format.fprintf fmt "; %d batches (max %d)" s.batches s.max_batch;
  if s.wal_appends > 0 then
    Format.fprintf fmt
      "; wal: %d appends in %d groups (max %d), %.2f fsyncs/append"
      s.wal_appends s.wal_groups s.wal_max_group
      (float_of_int s.wal_fsyncs /. float_of_int s.wal_appends)
