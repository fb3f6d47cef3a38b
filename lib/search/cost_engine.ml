module Mapping = Legodb_mapping.Mapping
module Xschema = Legodb_xtype.Xschema
module Xq_translate = Legodb_mapping.Xq_translate
module Rschema = Legodb_relational.Rschema
module Optimizer = Legodb_optimizer.Optimizer
module Cost = Legodb_optimizer.Cost

exception Cost_error of string

type fault = { stage : string; exn_class : string; message : string }

(* internal carrier: costing failures travel as [Fault] inside the
   engine so the public entry points can both account them and decide
   whether to surface a [Cost_error] ([cost]) or a value ([cost_result]) *)
exception Fault of fault

type snapshot = {
  evaluations : int;
  hits : int;
  misses : int;
  faults : int;
  t_mapping : float;
  t_translate : float;
  t_optimize : float;
}

let empty_snapshot =
  {
    evaluations = 0;
    hits = 0;
    misses = 0;
    faults = 0;
    t_mapping = 0.;
    t_translate = 0.;
    t_optimize = 0.;
  }

(* the mutable counter block, shared in shape between the engine proper
   and its worker shards so both feed the same costing code *)
type counters = {
  mutable evaluations : int;
  mutable hits : int;
  mutable misses : int;
  mutable faults : int;
  mutable t_mapping : float;
  mutable t_translate : float;
  mutable t_optimize : float;
}

let fresh_counters () =
  {
    evaluations = 0;
    hits = 0;
    misses = 0;
    faults = 0;
    t_mapping = 0.;
    t_translate = 0.;
    t_optimize = 0.;
  }

type t = {
  params : Cost.params option;
  workload_indexes : bool;
  queries : (Legodb_xquery.Xq_ast.t * float) array;
  updates : (Legodb_xquery.Xq_ast.update * float) array;
  memoize : bool;
  oracle : bool;
  inject : (string -> bool) option;
  per_query_timeout_ms : float option;
  clock : unit -> float;
  cache : (string, float) Hashtbl.t;
  c : counters;
  (* [frozen] marks a parallel fan-out in flight: the engine is then a
     read-mostly view (workers probe [cache], nothing writes it) and
     direct costing through the engine is a caller bug.  [pool] is the
     engine's persistent worker shards, one per worker slot, reused
     across iterations, strategies, and searches — [merge] resets a
     shard instead of consuming it. *)
  mutable frozen : bool;
  mutable pool : shard array;
}

and shard = {
  base : t;
  fresh : (string, float) Hashtbl.t;
  sc : counters;
}

let create ?params ?(workload_indexes = false) ?(updates = [])
    ?(memoize = true) ?(oracle = false) ?inject ?per_query_timeout_ms
    ?(clock = Unix.gettimeofday) ~workload () =
  {
    params;
    workload_indexes;
    queries = Array.of_list workload;
    updates = Array.of_list updates;
    memoize;
    oracle;
    inject;
    per_query_timeout_ms;
    clock;
    cache = Hashtbl.create 256;
    c = fresh_counters ();
    frozen = false;
    pool = [||];
  }

(* The cache key of one statement: its kind and position in the
   workload, then the sorted fingerprints of the tables it touches,
   framed like the fingerprints themselves ({!Mapping.add_frame}) in
   one buffer sized to fit.  Sorting the fingerprints (not the table
   names) keeps the key independent of the fresh type names a
   transformation order happens to generate, so structurally identical
   configurations reached by different step orders hit the same entry.
   [fps] is the per-pass {!Mapping.fingerprint_index} hashtable, so
   each touched table costs one O(1) probe.  A table without a
   fingerprint is named with tag [?], which no fingerprint (tag [W])
   begins with. *)
let key ~kind ~index fps tables =
  let fp t =
    match Hashtbl.find_opt fps t with Some f -> f | None -> "?" ^ t
  in
  let fps = List.sort String.compare (List.map fp tables) in
  let b =
    Buffer.create (List.fold_left (fun n f -> n + 4 + String.length f) 9 fps)
  in
  Buffer.add_char b kind;
  Buffer.add_int32_le b (Int32.of_int index);
  Mapping.add_frame b fps;
  Buffer.contents b

(* A candidate prepared once: mapped, its tables fingerprinted and the
   catalog fingerprint derived from them.  Beam's dedupe pass prepares
   every raw neighbour and hands the survivors to the costing pass, so
   nothing is mapped or fingerprinted twice. *)
type prepared = {
  schema : Xschema.t;
  mapped : (Mapping.t * (string * string) list, string list) result;
  fingerprint : string;
}

let fingerprint p = p.fingerprint

(* Map the candidate, fingerprint its tables and derive the catalog
   fingerprint, charged to [c.t_mapping].  An unmappable schema's
   fingerprint is its text under tag [X], which no catalog fingerprint
   (tag [C]) begins with. *)
let prepare_into (t : t) (c : counters) schema =
  let t0 = t.clock () in
  let mapped, fingerprint =
    match Mapping.of_pschema schema with
    | Error es -> (Error es, "X" ^ Xschema.to_string schema)
    | Ok m ->
        let fps = Mapping.table_fingerprints m.Mapping.catalog in
        (Ok (m, fps), Mapping.catalog_fingerprint fps)
  in
  c.t_mapping <- c.t_mapping +. (t.clock () -. t0);
  { schema; mapped; fingerprint }

(* One costing pass over a prepared candidate, generic over where
   cache lookups/insertions and counter bumps land: the engine itself
   ([cost]) or a worker shard ([shard_cost]).  Keeping a single body is
   what guarantees the sequential and sharded paths price a
   configuration identically.

   [check] is the cooperative cancellation point (see Budget): it runs
   before the evaluation is counted, so an exhausted budget abandons
   the configuration without charging it.  Failures leave as [Fault]
   records naming the pipeline stage and the exception class, so the
   search can account each skipped candidate instead of silently
   dropping it. *)
let cost_into ?(check = ignore) ~find ~add (t : t) (c : counters) p =
  check ();
  c.evaluations <- c.evaluations + 1;
  (match t.inject with
  | Some inject when inject (Xschema.to_string p.schema) ->
      raise
        (Fault
           {
             stage = "inject";
             exn_class = "Injected";
             message = "injected fault";
           })
  | _ -> ());
  let now = t.clock in
  let m, table_fps =
    match p.mapped with
    | Error es ->
        raise
          (Fault
             {
               stage = "mapping";
               exn_class = "Mapping_error";
               message = String.concat "; " es;
             })
    | Ok r -> r
  in
  let t1 = now () in
  let queries, updates =
    match
      ( Array.map
          (fun (q, w) -> (Xq_translate.translate_with_tables m q, w))
          t.queries,
        Array.map
          (fun (u, w) -> (Xq_translate.translate_update_with_tables m u, w))
          t.updates )
    with
    | qs, us -> (qs, us)
    | exception Xq_translate.Untranslatable msg ->
        raise
          (Fault
             {
               stage = "translate";
               exn_class = "Untranslatable";
               message = msg;
             })
  in
  c.t_translate <- c.t_translate +. (now () -. t1);
  let catalog =
    if t.workload_indexes then
      Rschema.add_indexes m.Mapping.catalog
        (Xq_translate.equality_columns
           (Array.to_list (Array.map (fun ((q, _), _) -> q) queries)))
    else m.Mapping.catalog
  in
  (* fingerprints are those of the catalog the optimizer sees, so
     workload-granted indexes are part of the invalidation key *)
  let fps =
    lazy
      (let t0 = now () in
       let fps =
         Mapping.fingerprint_index
           (if t.workload_indexes then Mapping.table_fingerprints catalog
            else table_fps)
       in
       c.t_mapping <- c.t_mapping +. (now () -. t0);
       fps)
  in
  let costed kind index tables fresh =
    let compute () =
      let t2 = now () in
      let v = fresh () in
      let dt = now () -. t2 in
      c.t_optimize <- c.t_optimize +. dt;
      (* a statement that overran the per-query bound poisons the whole
         configuration: costing it to completion was unavoidable (the
         optimizer is not preemptible between [?check] polls), but the
         remaining statements are abandoned and the candidate is
         accounted as a structured fault instead of eating the budget *)
      (match t.per_query_timeout_ms with
      | Some limit when dt *. 1000. > limit ->
          raise
            (Fault
               {
                 stage = "optimize";
                 exn_class = "Cost_timeout";
                 message =
                   Printf.sprintf
                     "statement %c%d took %.1f ms (per-query timeout %.1f ms)"
                     kind index (dt *. 1000.) limit;
               })
      | _ -> ());
      v
    in
    if not t.memoize then compute ()
    else
      let k = key ~kind ~index (Lazy.force fps) tables in
      match find k with
      | Some v ->
          if t.oracle then begin
            let fresh_v = compute () in
            if not (Float.equal v fresh_v) then
              invalid_arg
                (Printf.sprintf
                   "Cost_engine: cache divergence on statement %c%d (cached \
                    %h, fresh %h)"
                   kind index v fresh_v)
          end;
          c.hits <- c.hits + 1;
          v
      | None ->
          let v = compute () in
          c.misses <- c.misses + 1;
          add k v;
          v
  in
  (* exactly Optimizer.mixed_workload_cost's summation order, so a warm
     engine and a cold cost agree bit for bit *)
  let total = ref 0. in
  Array.iteri
    (fun i ((q, tables), weight) ->
      let v =
        costed 'q' i tables (fun () ->
            Optimizer.query_scalar_cost ?params:t.params catalog q)
      in
      total := !total +. (weight *. v))
    queries;
  let wtotal = ref 0. in
  Array.iteri
    (fun i ((u, tables), weight) ->
      let v =
        costed 'u' i tables (fun () ->
            Optimizer.write_cost ?params:t.params catalog u)
      in
      wtotal := !wtotal +. (weight *. v))
    updates;
  !total +. !wtotal

let check_thawed t =
  if t.frozen then
    invalid_arg
      "Cost_engine: engine is frozen (parallel fan-out in flight); cost \
       through its worker shards instead"

let prepare t schema =
  check_thawed t;
  prepare_into t t.c schema

let cost_prepared ?check t p =
  check_thawed t;
  match
    cost_into ?check
      ~find:(fun k -> Hashtbl.find_opt t.cache k)
      ~add:(fun k v -> Hashtbl.replace t.cache k v)
      t t.c p
  with
  | v -> Ok v
  | exception Fault f ->
      t.c.faults <- t.c.faults + 1;
      Error f

(* the schema-taking entry points poll [check] before preparing, so an
   exhausted budget abandons the candidate before any work *)
let cost_result ?(check = ignore) t schema =
  check_thawed t;
  check ();
  cost_prepared t (prepare t schema)

let cost ?check t schema =
  match cost_result ?check t schema with
  | Ok v -> v
  | Error f -> raise (Cost_error (Printf.sprintf "%s: %s" f.stage f.message))

let cost_opt ?check t schema =
  match cost_result ?check t schema with Ok c -> Some c | Error _ -> None

(* ------------------------------------------------------------------ *)
(* worker shards                                                       *)
(* ------------------------------------------------------------------ *)

let shard t = { base = t; fresh = Hashtbl.create 64; sc = fresh_counters () }

(* persistent per-worker shards: grown on demand, never shrunk, reused
   across fan-outs (merge resets a shard rather than consuming it) *)
let worker_shards t n =
  let n = max n 1 in
  let have = Array.length t.pool in
  if have < n then
    t.pool <-
      Array.init n (fun i -> if i < have then t.pool.(i) else shard t);
  if Array.length t.pool = n then t.pool else Array.sub t.pool 0 n

let freeze t =
  if t.frozen then invalid_arg "Cost_engine: already frozen";
  t.frozen <- true

let reset_shard sh =
  Hashtbl.reset sh.fresh;
  sh.sc.evaluations <- 0;
  sh.sc.hits <- 0;
  sh.sc.misses <- 0;
  sh.sc.faults <- 0;
  sh.sc.t_mapping <- 0.;
  sh.sc.t_translate <- 0.;
  sh.sc.t_optimize <- 0.

(* abandon a fan-out wholesale: nothing a worker computed — cache
   entries or counters — reaches the engine, exactly as if the shards
   had been dropped on the floor (but reusable) *)
let discard_shards t =
  Array.iter reset_shard t.pool;
  t.frozen <- false

let shard_prepare sh schema = prepare_into sh.base sh.sc schema

let shard_cost_prepared ?check sh p =
  match
    cost_into ?check
      ~find:(fun k ->
        match Hashtbl.find_opt sh.fresh k with
        | Some _ as r -> r
        | None -> Hashtbl.find_opt sh.base.cache k)
      ~add:(fun k v -> Hashtbl.replace sh.fresh k v)
      sh.base sh.sc p
  with
  | v -> Ok v
  | exception Fault f ->
      sh.sc.faults <- sh.sc.faults + 1;
      Error f

let shard_cost_result ?(check = ignore) sh schema =
  check ();
  shard_cost_prepared sh (shard_prepare sh schema)

let shard_cost ?check sh schema =
  match shard_cost_result ?check sh schema with
  | Ok v -> v
  | Error f -> raise (Cost_error (Printf.sprintf "%s: %s" f.stage f.message))

let merge t shards =
  (* every owner is checked before anything is touched, so a rejected
     merge leaves the engine — cache, counters, frozen state — as it
     was *)
  if List.exists (fun sh -> sh.base != t) shards then
    invalid_arg "Cost_engine.merge: shard belongs to a different engine";
  t.frozen <- false;
  List.iter
    (fun sh ->
      Hashtbl.iter
        (fun k v -> if not (Hashtbl.mem t.cache k) then Hashtbl.add t.cache k v)
        sh.fresh;
      t.c.evaluations <- t.c.evaluations + sh.sc.evaluations;
      t.c.hits <- t.c.hits + sh.sc.hits;
      t.c.misses <- t.c.misses + sh.sc.misses;
      t.c.faults <- t.c.faults + sh.sc.faults;
      t.c.t_mapping <- t.c.t_mapping +. sh.sc.t_mapping;
      t.c.t_translate <- t.c.t_translate +. sh.sc.t_translate;
      t.c.t_optimize <- t.c.t_optimize +. sh.sc.t_optimize;
      (* a merged shard must not contribute twice; resetting (not
         consuming) it is what lets the persistent pool shards be
         reused by the next fan-out *)
      reset_shard sh)
    shards

(* sorted so a snapshot of the cache is deterministic: the on-disk
   checkpoint of a given search state is byte-identical regardless of
   hash-table iteration order *)
let cache_entries t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cache []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let seed_cache t entries =
  List.iter (fun (k, v) -> Hashtbl.replace t.cache k v) entries

let snapshot_of (c : counters) : snapshot =
  {
    evaluations = c.evaluations;
    hits = c.hits;
    misses = c.misses;
    faults = c.faults;
    t_mapping = c.t_mapping;
    t_translate = c.t_translate;
    t_optimize = c.t_optimize;
  }

let snapshot t = snapshot_of t.c
let shard_snapshot sh = snapshot_of sh.sc

let diff (a : snapshot) (b : snapshot) : snapshot =
  {
    evaluations = a.evaluations - b.evaluations;
    hits = a.hits - b.hits;
    misses = a.misses - b.misses;
    faults = a.faults - b.faults;
    t_mapping = a.t_mapping -. b.t_mapping;
    t_translate = a.t_translate -. b.t_translate;
    t_optimize = a.t_optimize -. b.t_optimize;
  }

let hit_rate (s : snapshot) =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0. else float_of_int s.hits /. float_of_int lookups

let pp_snapshot fmt (s : snapshot) =
  Format.fprintf fmt
    "%d configurations costed, %d statement costings (%d cached, %.0f%% hit \
     rate); mapping %.3fs, translate %.3fs, optimize %.3fs"
    s.evaluations (s.hits + s.misses) s.hits
    (100. *. hit_rate s)
    s.t_mapping s.t_translate s.t_optimize;
  if s.faults > 0 then
    Format.fprintf fmt "; %d uncostable configuration%s skipped" s.faults
      (if s.faults = 1 then "" else "s")
