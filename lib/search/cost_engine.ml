module Mapping = Legodb_mapping.Mapping
module Xschema = Legodb_xtype.Xschema
module Xq_translate = Legodb_mapping.Xq_translate
module Rschema = Legodb_relational.Rschema
module Optimizer = Legodb_optimizer.Optimizer
module Cost = Legodb_optimizer.Cost
module Logical = Legodb_optimizer.Logical

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

(* A memo key with its hash, taken once: a key runs to kilobytes, and a
   neighbour that keeps its parent's key probes the memo table with it
   without hashing it again. *)
type key = { bytes : string; hash : int }

module Memo = Hashtbl.Make (struct
  type t = key

  let equal a b = a.hash = b.hash && String.equal a.bytes b.bytes
  let hash k = k.hash
end)

let key_of_bytes bytes = { bytes; hash = Hashtbl.hash bytes }

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
  cache : float Memo.t;
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
  fresh : float Memo.t;
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
    cache = Memo.create 256;
    c = fresh_counters ();
    frozen = false;
    pool = [||];
  }

(* The cache key of one statement: its kind and position in the
   workload, then the sorted fingerprints of the tables it touches,
   framed like the fingerprints themselves ({!Mapping.frame_string}) in
   one string of the exact length.  Sorting the fingerprints (not the table
   names) keeps the key independent of the fresh type names a
   transformation order happens to generate, so structurally identical
   configurations reached by different step orders hit the same entry.
   Each touched table costs one O(1) probe of [fps].  A table without a
   fingerprint is named with tag [?], which no fingerprint (tag [W])
   begins with. *)
let key ~kind ~index fps tables =
  let fp t =
    match Mapping.find_fingerprint fps t with Some f -> f | None -> "?" ^ t
  in
  key_of_bytes
    (Mapping.frame_string kind ~index
       (List.sort String.compare (List.map fp tables)))

(* A costed candidate's derived state: its mapping, the fingerprints
   of its catalog and of the catalog the optimizer saw (the same
   without [~workload_indexes]), every statement's translation, and
   every memo key (none without memoization).  Its neighbours are
   prepared from it; it is never written after it is made, so workers
   read it freely. *)
type priced = {
  p_mapping : Mapping.t;
  p_fps : Mapping.fingerprints;
  p_ofps : Mapping.fingerprints;
  p_queries : Logical.query Xq_translate.translation array;
  p_updates : Logical.update Xq_translate.translation array;
  p_qkeys : key array;
  p_ukeys : key array;
  p_cost : float;
}

let priced_cost p = p.p_cost

(* A candidate prepared once: mapped, its tables fingerprinted and the
   catalog fingerprint derived from them, from its parent's priced
   state when it has one.  Beam's dedupe pass prepares every raw
   neighbour and hands the survivors to the costing pass, so nothing is
   mapped or fingerprinted twice. *)
type prepared = {
  schema : Xschema.t;
  mapped : (Mapping.t * Mapping.fingerprints, string list) result;
  fingerprint : string;
  fingerprint_hash : int;
  parent : priced option;
}

let fingerprint p = p.fingerprint
let fingerprint_hash p = p.fingerprint_hash

let diverged what =
  invalid_arg
    ("Cost_engine: derived " ^ what ^ " diverges from a fresh derivation")

(* the oracle's check of a mapping and fingerprints derived from a
   parent against the from-scratch ones *)
let check_mapped schema (m, fps) =
  match Mapping.of_pschema schema with
  | Error _ -> diverged "mapping (fresh mapping fails)"
  | Ok m0 ->
      if
        not
          (compare m.Mapping.catalog m0.Mapping.catalog = 0
          && m.Mapping.transparent = m0.Mapping.transparent
          && m.Mapping.renamed = m0.Mapping.renamed
          && m.Mapping.ordered = m0.Mapping.ordered)
      then diverged "mapping";
      if
        Mapping.fingerprint_list fps
        <> Mapping.table_fingerprints m0.Mapping.catalog
      then diverged "fingerprints"

(* Map the candidate, fingerprint its tables and derive the catalog
   fingerprint, charged to [c.t_mapping]; from [parent]'s state when
   given.  An unmappable schema's fingerprint is its text under tag
   [X], which no catalog fingerprint (tag [C]) begins with.  Only beam
   deduplicates on the catalog fingerprint; the schema-taking entry
   points never read it, and prepare with [~catalog:false]. *)
let prepare_into ?(catalog = true) ?parent (t : t) (c : counters) schema =
  let t0 = t.clock () in
  let mapping =
    match parent with
    | Some p -> Mapping.derive ~parent:p.p_mapping schema
    | None -> Mapping.of_pschema schema
  in
  let mapped, fingerprint =
    match mapping with
    | Error es when not catalog -> (Error es, "")
    | Error es -> (Error es, "X" ^ Xschema.to_string schema)
    | Ok m ->
        let fps =
          Mapping.fingerprints
            ?parent:(Option.map (fun p -> p.p_fps) parent)
            m.Mapping.catalog
        in
        ( Ok (m, fps),
          if catalog then
            Mapping.catalog_fingerprint (Mapping.fingerprint_list fps)
          else "" )
  in
  c.t_mapping <- c.t_mapping +. (t.clock () -. t0);
  (match (t.oracle, parent, mapped) with
  | true, Some _, Ok mf -> check_mapped schema mf
  | true, Some _, Error _ -> (
      match Mapping.of_pschema schema with
      | Ok _ -> diverged "mapping (derived mapping fails)"
      | Error _ -> ())
  | _ -> ());
  (* hashed here, in the parallel pass, rather than by each probe of the
     sequential dedupe: a catalog fingerprint runs to kilobytes *)
  let fingerprint_hash = if catalog then Hashtbl.hash fingerprint else 0 in
  { schema; mapped; fingerprint; fingerprint_hash; parent }

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
   dropping it.

   A candidate prepared from a parent takes each statement's
   translation from the parent's when its reads are unchanged
   ({!Xq_translate.derive}), and the parent's memo key too when every
   table the statement touches kept its fingerprint; oracle mode checks
   both against fresh ones. *)
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
  let parent = p.parent in
  let from arr i =
    match parent with Some pp -> Some (arr pp).(i) | None -> None
  in
  let t1 = now () in
  let queries, updates =
    match
      ( Array.mapi
          (fun i (q, _) ->
            Xq_translate.derive ?parent:(from (fun pp -> pp.p_queries) i) m q)
          t.queries,
        Array.mapi
          (fun i (u, _) ->
            Xq_translate.derive_update
              ?parent:(from (fun pp -> pp.p_updates) i)
              m u)
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
  if t.oracle && parent <> None then begin
    let agrees tr (tr0 : _ Xq_translate.translation) =
      if
        not
          (compare tr.Xq_translate.translated tr0.translated = 0
          && tr.Xq_translate.tables = tr0.tables
          && Mapping.same_reads tr.Xq_translate.reads tr0.reads)
      then diverged "translation"
    in
    Array.iteri
      (fun i tr -> agrees tr (Xq_translate.derive m (fst t.queries.(i))))
      queries;
    Array.iteri
      (fun i tr -> agrees tr (Xq_translate.derive_update m (fst t.updates.(i))))
      updates
  end;
  let catalog =
    if t.workload_indexes then
      Rschema.add_indexes m.Mapping.catalog
        (Xq_translate.equality_columns
           (Array.to_list
              (Array.map (fun q -> q.Xq_translate.translated) queries)))
    else m.Mapping.catalog
  in
  (* fingerprints are those of the catalog the optimizer sees, so
     workload-granted indexes are part of the invalidation key *)
  let ofps =
    if not t.memoize then table_fps
    else if t.workload_indexes then begin
      let t0 = now () in
      let fps =
        Mapping.fingerprints
          ?parent:(Option.map (fun pp -> pp.p_ofps) parent)
          catalog
      in
      c.t_mapping <- c.t_mapping +. (now () -. t0);
      fps
    end
    else table_fps
  in
  (* a statement's key is its parent's when the translation is the
     parent's and every table it touches kept its fingerprint *)
  let key_of kind keys_of index (tr : _ Xq_translate.translation) theirs =
    let k =
      match (parent, theirs) with
      | Some pp, Some ptr
        when tr.Xq_translate.translated == ptr.Xq_translate.translated
             && Array.length (keys_of pp) > index
             && List.for_all (Mapping.kept_fingerprint ofps) tr.tables ->
          (keys_of pp).(index)
      | _ -> key ~kind ~index ofps tr.Xq_translate.tables
    in
    if t.oracle && parent <> None then begin
      let k0 =
        key ~kind ~index (Mapping.fingerprints catalog) tr.Xq_translate.tables
      in
      if not (String.equal k.bytes k0.bytes && k.hash = k0.hash) then
        diverged "memo key"
    end;
    k
  in
  let costed kind index key fresh =
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
    match key with
    | None -> compute ()
    | Some k -> (
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
            v)
  in
  let keys kind keys_of trs theirs =
    if not t.memoize then [||]
    else Array.mapi (fun i tr -> key_of kind keys_of i tr (theirs i)) trs
  in
  (* exactly Optimizer.mixed_workload_cost's summation order, so a warm
     engine and a cold cost agree bit for bit *)
  let qkeys =
    keys 'q' (fun pp -> pp.p_qkeys) queries (from (fun pp -> pp.p_queries))
  in
  let total = ref 0. in
  Array.iteri
    (fun i (tr : _ Xq_translate.translation) ->
      let key = if t.memoize then Some qkeys.(i) else None in
      let v =
        costed 'q' i key (fun () ->
            Optimizer.query_scalar_cost ?params:t.params catalog tr.translated)
      in
      total := !total +. (snd t.queries.(i) *. v))
    queries;
  let ukeys =
    keys 'u' (fun pp -> pp.p_ukeys) updates (from (fun pp -> pp.p_updates))
  in
  let wtotal = ref 0. in
  Array.iteri
    (fun i (tr : _ Xq_translate.translation) ->
      let key = if t.memoize then Some ukeys.(i) else None in
      let v =
        costed 'u' i key (fun () ->
            Optimizer.write_cost ?params:t.params catalog tr.translated)
      in
      wtotal := !wtotal +. (snd t.updates.(i) *. v))
    updates;
  {
    p_mapping = m;
    p_fps = table_fps;
    p_ofps = ofps;
    p_queries = queries;
    p_updates = updates;
    p_qkeys = qkeys;
    p_ukeys = ukeys;
    p_cost = !total +. !wtotal;
  }

let check_thawed t =
  if t.frozen then
    invalid_arg
      "Cost_engine: engine is frozen (parallel fan-out in flight); cost \
       through its worker shards instead"

let prepare ?parent t schema =
  check_thawed t;
  prepare_into ?parent t t.c schema

let price ?check t p =
  check_thawed t;
  match
    cost_into ?check
      ~find:(fun k -> Memo.find_opt t.cache k)
      ~add:(fun k v -> Memo.replace t.cache k v)
      t t.c p
  with
  | v -> Ok v
  | exception Fault f ->
      t.c.faults <- t.c.faults + 1;
      Error f

(* the schema-taking entry points poll [check] before preparing, so an
   exhausted budget abandons the candidate before any work *)
let price_schema ?(check = ignore) ?parent t schema =
  check_thawed t;
  check ();
  price t (prepare_into ~catalog:false ?parent t t.c schema)

let cost_result ?check t schema =
  Result.map priced_cost (price_schema ?check t schema)

let cost ?check t schema =
  match cost_result ?check t schema with
  | Ok v -> v
  | Error f -> raise (Cost_error (Printf.sprintf "%s: %s" f.stage f.message))

let cost_opt ?check t schema =
  match cost_result ?check t schema with Ok c -> Some c | Error _ -> None

(* ------------------------------------------------------------------ *)
(* worker shards                                                       *)
(* ------------------------------------------------------------------ *)

let shard t = { base = t; fresh = Memo.create 64; sc = fresh_counters () }

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
  Memo.reset sh.fresh;
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

let shard_prepare ?parent sh schema = prepare_into ?parent sh.base sh.sc schema

let shard_price ?check sh p =
  match
    cost_into ?check
      ~find:(fun k ->
        match Memo.find_opt sh.fresh k with
        | Some _ as r -> r
        | None -> Memo.find_opt sh.base.cache k)
      ~add:(fun k v -> Memo.replace sh.fresh k v)
      sh.base sh.sc p
  with
  | v -> Ok v
  | exception Fault f ->
      sh.sc.faults <- sh.sc.faults + 1;
      Error f

let shard_price_schema ?(check = ignore) ?parent sh schema =
  check ();
  shard_price sh (prepare_into ~catalog:false ?parent sh.base sh.sc schema)

let shard_cost ?check sh schema =
  match shard_price_schema ?check sh schema with
  | Ok p -> priced_cost p
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
      Memo.iter
        (fun k v -> if not (Memo.mem t.cache k) then Memo.add t.cache k v)
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
  Memo.fold (fun k v acc -> (k.bytes, v) :: acc) t.cache []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let seed_cache t entries =
  List.iter (fun (k, v) -> Memo.replace t.cache (key_of_bytes k) v) entries

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
