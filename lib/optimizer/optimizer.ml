open Legodb_relational

type result = { plan : Physical.plan; rows : float; cost : Cost.t }

let dp_limit = 10

(* The join-ordering core below is the mask-indexed fast path: alias
   sets are int bitmasks, per-split questions (connectivity, spanning
   predicates, index probes, subtree widths, subset cardinalities) are
   answered from per-block precomputed arrays, and the DP walks masks
   by a single ascending scan.  Each (mask, split) step compares the
   join methods by cost alone and allocates nothing for a loser; a
   mask's winner is one flat entry (its costs, method, right alias and
   probe).  The block's [Physical.plan] is built once, for the chosen
   tree, and only then are its sub-plans' signatures interned.  It must
   stay bit-identical to the frozen pre-rewrite code in
   test/reference/optimizer_reference.ml — same best plan, same cost
   floats — which pins down every float association order: see the
   comments on [offer] and [optimize_dp].  The differential suite in
   test/test_optimizer_perf.ml holds the two implementations
   together. *)

(* ------------------------------------------------------------------ *)
(* shared sub-plans                                                    *)
(* ------------------------------------------------------------------ *)

(* Signature of a base-table access, for common-subexpression sharing
   across the blocks of one query: a table read with identical local
   predicates in a later block of the same query comes from the buffer
   pool (the multi-query-optimizing Volcano of [16] shares such common
   subexpressions), so it costs CPU but no I/O.  A parameter slot reads
   [?k]: two template scans share only when they read the same slot. *)
let access_signature (rel : Logical.relation) filters access =
  let pred_sig (p : Logical.pred) =
    let op =
      match p.cmp with
      | Logical.C_eq -> "="
      | Logical.C_ne -> "<>"
      | Logical.C_lt -> "<"
      | Logical.C_le -> "<="
      | Logical.C_gt -> ">"
      | Logical.C_ge -> ">="
    in
    let operand = function
      | Logical.O_const v -> Legodb_relational.Rtype.value_to_sql v
      | Logical.O_col (_, c) -> "col:" ^ c
      | Logical.O_param k -> "?" ^ string_of_int k
    in
    snd p.lhs ^ op ^ operand p.rhs
  in
  let access_sig =
    match access with
    | Physical.Seq_scan -> "scan"
    | Physical.Index_probe { column } -> "probe:" ^ column
  in
  String.concat "|"
    (rel.table :: access_sig :: List.sort String.compare (List.map pred_sig filters))

(* A sub-plan's signature is an interned int, so identical subtrees
   across blocks (e.g. the actor⋈played⋈director⋈directed core repeated
   per partition) are recognized as shared without building strings.
   A scan's id interns its [access_signature]; a join's interns its
   children's ids (smaller first) with the sorted ids of its condition
   strings (see [cond_id]).  The reference compares canonical strings
   built from exactly these parts — the two child signatures sorted,
   then the sorted condition strings — and, constants being quoted,
   those strings parse back uniquely, so two sub-plans share an id
   exactly when their reference signatures are equal.

   Sub-plan signatures are interned only when a block registers its
   chosen plan, so an [Access] or [Join] present in the table is a
   sub-plan an earlier block read; condition strings are interned the
   first time a lookup or a registration needs them. *)
type part = Access of string | Cond of string | Join of int * int * int list
type shared = (part, int) Hashtbl.t

let shared () = Hashtbl.create 64

let intern sh part =
  match Hashtbl.find_opt sh part with
  | Some id -> id
  | None ->
      let id = Hashtbl.length sh in
      Hashtbl.add sh part id;
      id

(* the id of a sub-plan an earlier block read, else -1 *)
let lookup sh part =
  match Hashtbl.find_opt sh part with Some id -> id | None -> -1

(* ------------------------------------------------------------------ *)
(* per-block context: aliases as integer ids, preds as bitmasks        *)
(* ------------------------------------------------------------------ *)

let popcount m =
  let rec go m n = if m = 0 then n else go (m lsr 1) (n + (m land 1)) in
  go m 0

(* index of the highest set bit; [m > 0] *)
let top_bit m =
  let rec go m n = if m <= 1 then n else go (m lsr 1) (n + 1) in
  go m 0

(* One column of a join predicate, as the index-nested-loops branch
   reads it when that column's alias is the join's right input. *)
type side = {
  s_col : Logical.col;
  s_alias : int;
  s_probe : bool;  (* a column equality, and this column is indexed *)
  s_clustered : bool;  (* the column is the table's key *)
  s_fetch : float;  (* tuples per probe, card / distinct (if [s_probe]) *)
}

(* A predicate spanning two distinct aliases. *)
type jpred = {
  j_pred : Logical.pred;
  j_mask : int;  (* its two alias bits *)
  j_eq : bool;  (* a column equality: a join condition, else an extra *)
  j_lhs : side;
  j_rhs : side;
  mutable j_cond : int;  (* interned condition string, once needed; else -1 *)
}

(* Everything the inner DP loop consults per split, computed once per
   block: an alias's id is its position in the relation list, each
   predicate carries the bitmask of the aliases it mentions and its
   memoized selectivity, each join predicate what the index-nested-
   loops branch needs of its two columns, and each alias its clamped
   cardinality, widths, the aliases a join predicate links it to and
   its indexed join columns.  With these, connectivity, spanning
   predicates and index probes are bit tests and array reads. *)
type ctx = {
  c_params : Cost.params;
  c_env : Estimate.env;
  c_block : Logical.block;
  c_tables : string array;  (* table name per alias *)
  c_pmask : int array;  (* alias bitmask of each pred, in block order *)
  c_psel : float array;  (* memoized selectivity of each pred *)
  c_joins : jpred array;  (* the join predicates, in block order *)
  c_adj : int array;  (* per alias, the aliases its join predicates reach *)
  c_probes : int list array;
      (* per alias, the [c_joins] indexes of the equalities whose column
         on it is indexed, in reverse block order *)
  c_card : float array;  (* max(row_floor, card) per alias *)
  c_carry : float array;  (* per-alias carried width (see [entry_of]) *)
  c_rwidth : float array;  (* full row width per alias *)
}

let context params env (block : Logical.block) =
  let names =
    Array.of_list
      (List.map (fun (r : Logical.relation) -> r.alias) block.relations)
  in
  let tnames =
    Array.of_list
      (List.map (fun (r : Logical.relation) -> r.table) block.relations)
  in
  let n = Array.length names in
  let preds = Array.of_list block.preds in
  let pmask =
    Array.map
      (fun p ->
        List.fold_left
          (fun m a -> m lor (1 lsl Estimate.alias_id env a))
          0 (Logical.pred_aliases p))
      preds
  in
  let psel = Array.map (Estimate.pred_selectivity env) preds in
  let side eq ((a, c) as col) =
    let id = Estimate.alias_id env a in
    let tbl = Estimate.table_at env id in
    let probe = eq && Rschema.has_index tbl c in
    {
      s_col = col;
      s_alias = id;
      s_probe = probe;
      s_clustered = String.equal c tbl.key;
      s_fetch =
        (if probe then
           tbl.card
           /. Float.max 1. (Rschema.column tbl c).Rschema.stats.distinct
         else 0.);
    }
  in
  let joins =
    Array.of_list
      (List.filter_map
         (fun ((p : Logical.pred), pm) ->
           match p.rhs with
           | Logical.O_col rc when popcount pm = 2 ->
               let eq = p.cmp = Logical.C_eq in
               Some
                 {
                   j_pred = p;
                   j_mask = pm;
                   j_eq = eq;
                   j_lhs = side eq p.lhs;
                   j_rhs = side eq rc;
                   j_cond = -1;
                 }
           | _ -> None)
         (List.combine block.preds (Array.to_list pmask)))
  in
  let adj = Array.make n 0 and probes = Array.make n [] in
  Array.iteri
    (fun k j ->
      let a = j.j_lhs.s_alias and b = j.j_rhs.s_alias in
      adj.(a) <- adj.(a) lor (1 lsl b);
      adj.(b) <- adj.(b) lor (1 lsl a);
      if j.j_lhs.s_probe then probes.(a) <- k :: probes.(a);
      if j.j_rhs.s_probe then probes.(b) <- k :: probes.(b))
    joins;
  let card =
    Array.init n (fun i ->
        Float.max Estimate.row_floor (Estimate.table_at env i).Rschema.card)
  in
  (* Width contributed by one alias to an intermediate result: plans
     project eagerly, so a tuple flowing above a join carries only the
     columns the block still needs (projection columns and predicate
     columns). *)
  let carry =
    Array.init n (fun i ->
        let a = names.(i) in
        let tbl = Estimate.table_at env i in
        let needed =
          List.sort_uniq compare
            (List.filter_map
               (fun (al, c) -> if String.equal al a then Some c else None)
               block.out
            @ List.concat_map
                (fun (p : Logical.pred) ->
                  (if String.equal (fst p.lhs) a then [ snd p.lhs ] else [])
                  @
                  match p.rhs with
                  | Logical.O_col (ra, rc) when String.equal ra a -> [ rc ]
                  | _ -> [])
                block.preds)
        in
        List.fold_left
          (fun acc c ->
            match Rschema.find_column tbl c with
            | Some col -> acc +. col.Rschema.stats.avg_width
            | None -> acc)
          0. needed)
  in
  {
    c_params = params;
    c_env = env;
    c_block = block;
    c_tables = tnames;
    c_pmask = pmask;
    c_psel = psel;
    c_joins = joins;
    c_adj = adj;
    c_probes = probes;
    c_card = card;
    c_carry = carry;
    c_rwidth =
      Array.init n (fun i -> Rschema.row_width (Estimate.table_at env i));
  }

(* ------------------------------------------------------------------ *)
(* access paths                                                        *)
(* ------------------------------------------------------------------ *)

type meth = Nl | Index_nl | Hash | Shared_hash

(* A sub-plan as the DP compares it: its estimates, and for a join the
   winning method, right alias and probe, from which [build] makes the
   plan node once the block's tree is chosen. *)
type entry = {
  e_rows : float;
  e_cost : Cost.t;
  e_mask : int;  (* the subtree's aliases, as a bitmask *)
  e_width : float;  (* subtree width, fold-accumulated in plan order *)
  e_pages : float;  (* pages of its result, as a hash join's input *)
  e_id : int;  (* interned signature if an earlier block read it, else -1 *)
  e_meth : meth;  (* a join's method *)
  e_right : int;  (* a join's right alias; a base access's own alias *)
  e_probe : int;  (* [c_joins] index of an index-nested-loops probe *)
}

(* The cheapest access path of relation [i], as its scan node and its
   entry.  A path an earlier block read costs CPU but no I/O; while the
   cache holds nothing, no path can have been read, so none is looked
   up. *)
let access_plan sh ctx i (rel : Logical.relation) =
  let params = ctx.c_params and env = ctx.c_env in
  let tbl = Estimate.table_at env i in
  let filters = Logical.local_preds ctx.c_block.preds rel.alias in
  let rows = Estimate.base_rows env rel.alias in
  let width = ctx.c_rwidth.(i) in
  let tpages = Cost.pages params (tbl.card *. width) in
  let path access cpu io =
    let id =
      match sh with
      | Some sh when Hashtbl.length sh > 0 ->
          lookup sh (Access (access_signature rel filters access))
      | _ -> -1
    in
    let cost =
      if id >= 0 then
        { Cost.seeks = 0.; pages_read = 0.; pages_written = 0.; cpu }
      else io ()
    in
    (Physical.Scan { rel; access; filters }, cost, id)
  in
  let seq =
    path Physical.Seq_scan tbl.card (fun () ->
        {
          Cost.seeks = 1.;
          pages_read = tpages;
          pages_written = 0.;
          cpu = tbl.card;
        })
  in
  let probes =
    List.filter_map
      (fun (p : Logical.pred) ->
        match (p.cmp, p.rhs) with
        | Logical.C_eq, (Logical.O_const _ | Logical.O_param _)
          when Rschema.has_index tbl (snd p.lhs) ->
            let matches =
              Float.max 1. (tbl.card *. Estimate.pred_selectivity env p)
            in
            let clustered = String.equal (snd p.lhs) tbl.key in
            Some
              (path (Physical.Index_probe { column = snd p.lhs }) matches
                 (fun () ->
                   if clustered then
                     {
                       Cost.seeks = 3.;
                       pages_read = Cost.pages params (matches *. width);
                       pages_written = 0.;
                       cpu = matches;
                     }
                   else
                     {
                       Cost.seeks = 3. +. Float.min matches tpages;
                       pages_read = Float.min matches tpages;
                       pages_written = 0.;
                       cpu = matches;
                     }))
        | _ -> None)
      filters
  in
  let plan, cost, id =
    List.fold_left
      (fun ((_, bc, _) as best) ((_, c, _) as cand) ->
        if Cost.total params c < Cost.total params bc then cand else best)
      seq probes
  in
  let e_width = 0. +. ctx.c_carry.(i) +. 8. in
  ( plan,
    {
      e_rows = rows;
      e_cost = cost;
      e_mask = 1 lsl i;
      e_width;
      e_pages = Cost.pages params (rows *. e_width);
      e_id = id;
      e_meth = Nl;
      e_right = i;
      e_probe = -1;
    } )

(* ------------------------------------------------------------------ *)
(* join costing                                                        *)
(* ------------------------------------------------------------------ *)

(* The running best join of one mask (or one greedy step), as plain
   data: the floats sit in a flat float record, so offering a candidate
   stores without allocating, and the winner's entry is built from it
   once. *)
type costs = {
  mutable rows_out : float;  (* rows of the join being costed *)
  mutable b_rows : float;
  mutable b_seeks : float;
  mutable b_read : float;
  mutable b_written : float;
  mutable b_cpu : float;
  mutable b_total : float;
}

type best = {
  f : costs;
  mutable found : bool;
  mutable meth : meth;
  mutable right : int;  (* alias id of the right input *)
  mutable probe : int;  (* [c_joins] index of the index-nested-loops probe *)
}

let new_best () =
  {
    f =
      {
        rows_out = 0.;
        b_rows = 0.;
        b_seeks = 0.;
        b_read = 0.;
        b_written = 0.;
        b_cpu = 0.;
        b_total = 0.;
      };
    found = false;
    meth = Nl;
    right = 0;
    probe = -1;
  }

(* Offer one join method's cost components.  The callers compute each
   component in the association [Cost.add]/[Cost.scale] would, and the
   total here is [Cost.total]'s, so the floats are the reference's;
   the first candidate offered wins a tie, as in the reference's
   [consider]. *)
let[@inline] offer (p : Cost.params) b meth right probe seeks read written cpu =
  let total =
    (p.seek_weight *. seeks)
    +. (p.read_weight *. read)
    +. (p.write_weight *. written)
    +. (p.cpu_weight *. cpu)
  in
  if not (b.found && b.f.b_total <= total) then begin
    b.found <- true;
    b.meth <- meth;
    b.right <- right;
    b.probe <- probe;
    b.f.b_rows <- b.f.rows_out;
    b.f.b_seeks <- seeks;
    b.f.b_read <- read;
    b.f.b_written <- written;
    b.f.b_cpu <- cpu;
    b.f.b_total <- total
  end

let side_on i j = if j.j_lhs.s_alias = i then j.j_lhs else j.j_rhs

(* The index-nested-loops probe of [left] ⋈ [i]: the last spanning
   equality (in block order) whose column on [i] is indexed — the first
   the reference finds in its reversed condition list — or -1. *)
let probe_on ctx i lmask =
  let rec first = function
    | [] -> -1
    | k :: rest ->
        if ctx.c_joins.(k).j_mask land lmask <> 0 then k else first rest
  in
  first ctx.c_probes.(i)

(* a join predicate's condition id: its string, as the reference's
   signature spells it (tables, not aliases, and an equality's two sides
   in string order), interned the first time it is needed *)
let cond_id ctx sh j =
  if j.j_cond < 0 then begin
    let at s = ctx.c_tables.(s.s_alias) ^ "." ^ snd s.s_col in
    let text =
      if j.j_eq then
        let a = at j.j_lhs and b = at j.j_rhs in
        if a <= b then a ^ "=" ^ b else b ^ "=" ^ a
      else at j.j_lhs
    in
    j.j_cond <- intern sh (Cond text)
  end;
  j.j_cond

(* the signature part of a join of [lid] and [rid] over the predicates
   spanning [lmask] and [rmask] *)
let join_part ctx sh lid rid lmask rmask =
  let ids = ref [] in
  Array.iter
    (fun j ->
      if j.j_mask land lmask <> 0 && j.j_mask land rmask <> 0 then
        ids := cond_id ctx sh j :: !ids)
    ctx.c_joins;
  Join (Int.min lid rid, Int.max lid rid, List.sort Int.compare !ids)

(* The id of [left] ⋈ [right] if an earlier block read it, else -1.
   Every sub-plan of a read plan was registered with it, so only a join
   of two read inputs can have been read; no other is looked up. *)
let read_join ctx sh left right =
  match sh with
  | Some sh when left.e_id >= 0 && right.e_id >= 0 ->
      lookup sh (join_part ctx sh left.e_id right.e_id left.e_mask right.e_mask)
  | _ -> -1

(* Offer every join method of [left] ⋈ [right] (base relation [i]) to
   [b], in the reference's order: nested loops, index nested loops,
   hash, then the shared hash of a subtree an earlier block already
   read.  The rows of the join are [b.f.rows_out].  With
   [connected_only], a split no predicate spans offers nothing. *)
let offer_split ctx sh b ~connected_only left i right =
  let p = ctx.c_params in
  if (not connected_only) || ctx.c_adj.(i) land left.e_mask <> 0 then begin
    let lc = left.e_cost and rc = right.e_cost in
    let lrows = left.e_rows and rrows = right.e_rows in
    let rows_out = b.f.rows_out in
    offer p b Nl i (-1)
      (lc.seeks +. ((lrows *. rc.seeks) +. 0.))
      (lc.pages_read +. ((lrows *. rc.pages_read) +. 0.))
      (lc.pages_written +. ((lrows *. rc.pages_written) +. 0.))
      (lc.cpu +. ((lrows *. rc.cpu) +. (lrows *. rrows)));
    let probe = probe_on ctx i left.e_mask in
    if probe >= 0 then begin
      (* tuples fetched per probe are governed by the join key's
         distinct count — local filters are applied only after the
         fetch *)
      let s = side_on i ctx.c_joins.(probe) in
      let m = s.s_fetch in
      let pp_seeks =
        if s.s_clustered then 1. else 1. +. Float.max 0. (m -. 1.)
      in
      let pp_read =
        if s.s_clustered then
          Float.max 1. (ceil (m *. ctx.c_rwidth.(i) /. p.page_size))
        else Float.max 1. m
      in
      offer p b Index_nl i probe
        (lc.seeks +. ((lrows *. pp_seeks) +. 0.))
        (lc.pages_read +. ((lrows *. pp_read) +. 0.))
        (lc.pages_written +. ((lrows *. 0.) +. 0.))
        (lc.cpu +. ((lrows *. (1. +. m)) +. rows_out))
    end;
    (* hash join: build the right input, probe with the left *)
    let spill = right.e_pages > p.memory_pages in
    let spill_pages = if spill then right.e_pages +. left.e_pages else 0. in
    offer p b Hash i (-1)
      ((lc.seeks +. rc.seeks) +. ((if spill then 2. else 0.) +. 0.))
      ((lc.pages_read +. rc.pages_read) +. (spill_pages +. 0.))
      ((lc.pages_written +. rc.pages_written) +. (spill_pages +. 0.))
      ((lc.cpu +. rc.cpu) +. (0. +. (lrows +. rrows +. rows_out)));
    (* a join subtree already computed by an earlier block of the same
       query is reused from the buffer pool: CPU to re-emit, no I/O *)
    if read_join ctx sh left right >= 0 then
      offer p b Shared_hash i (-1) 0. 0. 0. rows_out
  end

(* The entry of [b]'s winner, whose left input is [left].  Its width
   continues [left]'s fold over the right relation: the reference folds
   [fun w a -> w +. carry a +. 8.] over the joined plan's aliases in
   plan order, and a join's relation list is
   [relations left @ relations right]. *)
let entry_of ctx sh b left right =
  let e_width = left.e_width +. ctx.c_carry.(b.right) +. 8. in
  {
    e_rows = b.f.b_rows;
    e_cost =
      {
        Cost.seeks = b.f.b_seeks;
        pages_read = b.f.b_read;
        pages_written = b.f.b_written;
        cpu = b.f.b_cpu;
      };
    e_mask = left.e_mask lor right.e_mask;
    e_width;
    e_pages = Cost.pages ctx.c_params (b.f.b_rows *. e_width);
    e_id = read_join ctx sh left right;
    e_meth = b.meth;
    e_right = b.right;
    e_probe = b.probe;
  }

(* The plan of the chosen tree over [mask], built once per block, and
   its signature id (-1 without a cache).  A single bit is a base
   access; [at] gives the entry of a join's mask.  A join's conditions
   are oriented left-first and, with its extras, listed in the reverse
   block order of the reference's consing fold.  With a cache, every
   sub-plan is registered bottom-up; one an earlier block read was
   registered then, with all of its own. *)
let rec build ctx sh scans base at mask =
  if mask land (mask - 1) = 0 then
    let i = top_bit mask in
    let e = base.(i) in
    let id =
      match (sh, scans.(i)) with
      | Some sh, Physical.Scan { rel; access; filters } when e.e_id < 0 ->
          intern sh (Access (access_signature rel filters access))
      | _ -> e.e_id
    in
    (scans.(i), id)
  else
    let e = at mask in
    let i = e.e_right in
    let rbit = 1 lsl i in
    let lmask = mask lxor rbit in
    let left, lid = build ctx sh scans base at lmask in
    let right, rid = build ctx sh scans base at rbit in
    let conds = ref [] and extra = ref [] in
    Array.iter
      (fun j ->
        if j.j_mask land rbit <> 0 && j.j_mask land lmask <> 0 then
          if j.j_eq then
            let l, r =
              if j.j_lhs.s_alias = i then (j.j_rhs, j.j_lhs)
              else (j.j_lhs, j.j_rhs)
            in
            conds := (l.s_col, r.s_col) :: !conds
          else extra := j.j_pred :: !extra)
      ctx.c_joins;
    let jm =
      match e.e_meth with
      | Nl -> Physical.Nl_join
      | Index_nl ->
          Physical.Index_nl
            { column = snd (side_on i ctx.c_joins.(e.e_probe)).s_col }
      | Hash | Shared_hash -> Physical.Hash_join
    in
    let id =
      match sh with
      | Some sh when e.e_id < 0 ->
          intern sh (join_part ctx sh lid rid lmask rbit)
      | _ -> e.e_id
    in
    (Physical.Join { jm; left; right; conds = !conds; extra = !extra }, id)

(* ------------------------------------------------------------------ *)
(* join ordering                                                       *)
(* ------------------------------------------------------------------ *)

(* The DP table: the winning entry of every mask, a base entry at each
   single bit. *)
let optimize_dp sh ctx base =
  let n = Array.length base in
  let full = (1 lsl n) - 1 in
  let table = Array.make (full + 1) base.(0) in
  Array.iter (fun e -> table.(e.e_mask) <- e) base;
  (* memoized Estimate.subset_rows, split into its two folds.  The
     clamped-card product over a mask's aliases in block order equals
     the product over the mask minus its top bit extended by the top
     alias (a left fold over a list extends over its last element), so
     one ascending pass fills the whole array. *)
  let cards = Array.make (full + 1) 1. in
  for m = 1 to full do
    let top = top_bit m in
    cards.(m) <- cards.(m land lnot (1 lsl top)) *. ctx.c_card.(top)
  done;
  let b = new_best () in
  (* left-deep enumeration: the right input of every join is a single
     base relation, which is where index-nested-loops applies anyway *)
  let splits mask connected_only =
    for i = 0 to n - 1 do
      let r = 1 lsl i in
      if mask land r <> 0 then
        offer_split ctx sh b ~connected_only table.(mask lxor r) i base.(i)
    done
  in
  (* Every strict submask of [mask] is numerically smaller, so a single
     ascending scan visits masks in a valid DP order — the
     popcount-sorted work list of the reference, without materializing
     or sorting 2^n masks. *)
  for mask = 1 to full do
    if popcount mask >= 2 then begin
      (* selectivities multiplied in block pred order, exactly like the
         reference's fold over the predicates whose aliases all fall
         inside the subset *)
      let s = ref 1. in
      for k = 0 to Array.length ctx.c_pmask - 1 do
        let pm = ctx.c_pmask.(k) in
        if pm land mask = pm then s := !s *. ctx.c_psel.(k)
      done;
      b.f.rows_out <- Float.max Estimate.row_floor (cards.(mask) *. !s);
      b.found <- false;
      splits mask true;
      if not b.found then splits mask false;
      table.(mask) <-
        entry_of ctx sh b table.(mask lxor (1 lsl b.right)) base.(b.right)
    end
  done;
  table

let optimize_greedy sh ctx base =
  (* left-deep: start from the cheapest entry, repeatedly add the
     relation that yields the cheapest join, preferring connected ones.
     One chain of [offer]s over every (relation, method) keeps the first
     cheapest, as the reference's per-relation best-of followed by a
     strict comparison across relations does.
     Cardinalities still go through the list-based
     [Estimate.subset_rows]: the greedy accumulator's aliases are in
     plan order, not block order, and the reference multiplies them in
     that order.  Returns the entry of each mask the chain joined. *)
  let params = ctx.c_params in
  let names =
    Array.of_list
      (List.map (fun (r : Logical.relation) -> r.alias) ctx.c_block.relations)
  in
  let by_cost =
    List.sort
      (fun a b ->
        Float.compare (Cost.total params a.e_cost) (Cost.total params b.e_cost))
      (Array.to_list base)
  in
  let b = new_best () in
  let rec go chain acc_aliases remaining =
    match remaining with
    | [] -> chain
    | _ ->
        let acc = List.hd chain in
        let splits connected_only =
          List.iter
            (fun r ->
              b.f.rows_out <-
                Estimate.subset_rows ctx.c_env
                  (acc_aliases @ [ names.(r.e_right) ]);
              offer_split ctx sh b ~connected_only acc r.e_right r)
            remaining
        in
        b.found <- false;
        splits true;
        if not b.found then splits false;
        let r = base.(b.right) in
        go
          (entry_of ctx sh b acc r :: chain)
          (acc_aliases @ [ names.(b.right) ])
          (List.filter (fun x -> x != r) remaining)
  in
  let chain =
    match by_cost with
    | [] -> invalid_arg "optimize_greedy: empty block"
    | first :: rest -> go [ first ] [ names.(first.e_right) ] rest
  in
  fun mask -> List.find (fun e -> e.e_mask = mask) chain

let optimize_block ?(params = Cost.default_params) ?shared cat
    (block : Logical.block) =
  if block.relations = [] then invalid_arg "optimize_block: no relations";
  (match Logical.block_wellformed cat block with
  | Ok () -> ()
  | Error es ->
      invalid_arg ("optimize_block: " ^ String.concat "; " es));
  let env = Estimate.env cat block in
  let ctx = context params env block in
  let aliases = List.map (fun (r : Logical.relation) -> r.alias) block.relations in
  let scans, base =
    Array.split
      (Array.of_list (List.mapi (access_plan shared ctx) block.relations))
  in
  let n = Array.length base in
  let at =
    if n = 1 then fun _ -> base.(0)
    else if n <= dp_limit then Array.get (optimize_dp shared ctx base)
    else optimize_greedy shared ctx base
  in
  let joined = at ((1 lsl n) - 1) in
  let plan, _ = build ctx shared scans base at joined.e_mask in
  (* result output: write the projected rows out *)
  let out_width = Estimate.output_width env block.out aliases in
  let output_cost =
    {
      Cost.seeks = 0.;
      pages_read = 0.;
      pages_written = Cost.pages params (joined.e_rows *. out_width);
      cpu = joined.e_rows;
    }
  in
  { plan; rows = joined.e_rows; cost = Cost.add joined.e_cost output_cost }

let query_cost ?(params = Cost.default_params) cat (q : Logical.query) =
  (* the blocks of one query share base-table accesses (outer-union
     decomposition reads the same tables repeatedly) *)
  let shared = shared () in
  let results = List.map (optimize_block ~params ~shared cat) q.blocks in
  let total =
    List.fold_left (fun t r -> t +. Cost.total params r.cost) 0. results
  in
  (results, total)

let query_scalar_cost ?params cat q = snd (query_cost ?params cat q)

let workload_cost ?params cat workload =
  List.fold_left
    (fun acc (q, weight) -> acc +. (weight *. query_scalar_cost ?params cat q))
    0. workload

(* ------------------------------------------------------------------ *)
(* write costing                                                       *)
(* ------------------------------------------------------------------ *)

let write_cost ?(params = Cost.default_params) cat (u : Logical.update) =
  let shared = shared () in
  List.fold_left
    (fun acc (w : Logical.write) ->
      let tbl = Rschema.table cat w.Logical.w_table in
      let rows, locate_cost =
        match w.Logical.w_locate with
        | Some block ->
            let r = optimize_block ~params ~shared cat block in
            (r.rows *. w.Logical.w_per_row, Cost.total params r.cost)
        | None -> (w.Logical.w_per_row, 0.)
      in
      let width = Rschema.row_width tbl in
      let indexes = float_of_int (List.length tbl.Rschema.indexed) in
      let per_row =
        match w.Logical.w_kind with
        | Logical.W_insert | Logical.W_delete ->
            (* the row's page plus maintenance of every index *)
            {
              Cost.seeks = 1. +. indexes;
              pages_read = 0.;
              pages_written = Float.max 1. (width /. params.Cost.page_size);
              cpu = 1. +. indexes;
            }
        | Logical.W_update ->
            (* rewrite the row in place; indexes on the changed column
               only — approximated as one *)
            {
              Cost.seeks = 2.;
              pages_read = 0.;
              pages_written = 1.;
              cpu = 2.;
            }
      in
      acc +. locate_cost +. Cost.total params (Cost.scale rows per_row))
    0. u.Logical.writes
