open Legodb_relational

type measures = {
  tuples_scanned : int;
  index_probes : int;
  join_tuples : int;
  bytes_read : float;
  output_rows : int;
}

let zero_measures =
  {
    tuples_scanned = 0;
    index_probes = 0;
    join_tuples = 0;
    bytes_read = 0.;
    output_rows = 0;
  }

(* ------------------------------------------------------------------ *)
(* one run's state                                                     *)
(* ------------------------------------------------------------------ *)

(* bytes_read sits alone in an all-float record, so adding to it stores
   an unboxed float instead of allocating one *)
type read = { mutable bytes : float }

type ctx = {
  params : Rtype.value array;  (* slot k binds [Logical.O_param k] *)
  mutable scanned : int;
  mutable probes : int;
  mutable joined : int;
  read : read;
}

(* the same float additions, in the same order, as summing the row's
   widths from 0. and then adding that to the total *)
let add_row_bytes ctx (row : Storage.row) =
  let b = ref 0. in
  for i = 0 to Array.length row - 1 do
    b := !b +. float_of_int (Rtype.value_width row.(i))
  done;
  ctx.read.bytes <- ctx.read.bytes +. !b

let param ctx k =
  if k < 0 || k >= Array.length ctx.params then
    invalid_arg (Printf.sprintf "Executor: parameter slot %d is unbound" k)
  else ctx.params.(k)

let eval_cmp cmp l r =
  if Rtype.is_null l || Rtype.is_null r then false
  else
    let c = Rtype.compare_value l r in
    match cmp with
    | Logical.C_eq -> c = 0
    | Logical.C_ne -> c <> 0
    | Logical.C_lt -> c < 0
    | Logical.C_le -> c <= 0
    | Logical.C_gt -> c > 0
    | Logical.C_ge -> c >= 0

(* ------------------------------------------------------------------ *)
(* resolving names, once                                               *)
(* ------------------------------------------------------------------ *)

(* A tuple holds one row per relation of its subplan, in plan order, so
   an alias is a slot and a column a position, both fixed at compile
   time.  A name that does not resolve compiles to a reader that raises
   when it is read — the interpreter's error, at the interpreter's
   moment. *)
type tuple = Storage.row array

let slot_of alias aliases =
  let rec go i = function
    | [] -> None
    | a :: rest -> if String.equal a alias then Some i else go (i + 1) rest
  in
  go 0 aliases

(* [(alias, column)] read from a tuple over [aliases], the alias's
   table found among the plan node's relations [rels] *)
let locate db rels aliases (alias, column) =
  match slot_of alias aliases with
  | None -> Error (Printf.sprintf "Executor: alias %s not in tuple" alias)
  | Some slot -> (
      match
        List.find_opt
          (fun (r : Logical.relation) -> String.equal r.alias alias)
          rels
      with
      | None -> Error (Printf.sprintf "Executor: unknown alias %s" alias)
      | Some r -> (
          match Storage.column_position db ~table:r.table ~column with
          | pos -> Ok (slot, pos)
          | exception Not_found ->
              Error
                (Printf.sprintf "Executor: unknown column %s in table %s"
                   column r.table)
          | exception Invalid_argument m -> Error m))

let tuple_reader = function
  | Ok (slot, pos) -> fun (t : tuple) -> t.(slot).(pos)
  | Error m -> fun _ -> invalid_arg m

(* a scan's filters read its one row directly: no tuple is built for a
   row they reject *)
let row_reader = function
  | Ok (_, pos) -> fun (row : Storage.row) -> row.(pos)
  | Error m -> fun _ -> invalid_arg m

let on_row db rels (rel : Logical.relation) c =
  row_reader (locate db rels [ rel.alias ] c)

(* a resolution that raises now (an unknown table) raises at run time
   instead *)
let staged f =
  match f () with
  | g -> g
  | exception (Invalid_argument _ as e) -> fun _ -> raise e

(* [read] resolves a column to a reader of one row or of a tuple *)
let pred read (p : Logical.pred) =
  let lhs = read p.lhs and cmp = p.cmp in
  match p.rhs with
  | Logical.O_const v -> fun _ x -> eval_cmp cmp (lhs x) v
  | Logical.O_param k ->
      fun ctx x ->
        let l = lhs x in
        eval_cmp cmp l (param ctx k)
  | Logical.O_col c ->
      let rhs = read c in
      fun _ x ->
        let l = lhs x in
        eval_cmp cmp l (rhs x)

(* a conjunction, short-circuiting left to right *)
let rec all = function
  | [] -> fun _ _ -> true
  | [ p ] -> p
  | p :: ps ->
      let rest = all ps in
      fun ctx x -> p ctx x && rest ctx x

let aliases plan =
  List.map (fun (r : Logical.relation) -> r.alias) (Physical.relations plan)

let snoc (t : tuple) row : tuple =
  let n = Array.length t in
  let t' = Array.make (n + 1) row in
  Array.blit t 0 t' 0 n;
  t'

(* ------------------------------------------------------------------ *)
(* plans to closures                                                   *)
(* ------------------------------------------------------------------ *)

let rec read_all readers t =
  match readers with
  | [] -> []
  | read :: rest ->
      let v = read t in
      v :: read_all rest t

(* Each node compiles to a closure returning its tuples in the
   interpreter's order, with the interpreter's counts: inputs are
   evaluated left before right, and every counter and byte is added
   at the point the interpreter added it. *)
let rec node db plan : ctx -> tuple list =
  let rels = Physical.relations plan in
  match plan with
  | Physical.Scan { rel; access; filters } -> (
      let keep = all (List.map (pred (on_row db rels rel)) filters) in
      match access with
      | Physical.Seq_scan ->
          let rows =
            match Storage.scan db rel.table with
            | s -> s
            | exception (Invalid_argument _ as e) -> fun () -> raise e
          in
          fun ctx ->
            Seq.fold_left
              (fun acc row ->
                ctx.scanned <- ctx.scanned + 1;
                add_row_bytes ctx row;
                if keep ctx row then [| row |] :: acc else acc)
              [] rows
            |> List.rev
      | Physical.Index_probe { column } -> (
          let key =
            List.find_map
              (fun (p : Logical.pred) ->
                match (p.cmp, p.rhs) with
                | Logical.C_eq, Logical.O_const v
                  when String.equal (snd p.lhs) column ->
                    Some (fun _ -> v)
                | Logical.C_eq, Logical.O_param k
                  when String.equal (snd p.lhs) column ->
                    Some (fun ctx -> param ctx k)
                | _ -> None)
              filters
          in
          let probe =
            staged (fun () -> Storage.lookup db ~table:rel.table ~column)
          in
          match key with
          | None ->
              fun _ ->
                invalid_arg "Executor: index probe without an equality filter"
          | Some key ->
              fun ctx ->
                let v = key ctx in
                ctx.probes <- ctx.probes + 1;
                List.filter_map
                  (fun row ->
                    add_row_bytes ctx row;
                    if keep ctx row then Some [| row |] else None)
                  (probe v)))
  | Physical.Join { jm; left; right; conds; extra } -> (
      let lslots = aliases left and rslots = aliases right in
      let joined c = tuple_reader (locate db rels (lslots @ rslots) c) in
      let extras = all (List.map (pred joined) extra) in
      let emit ctx acc t =
        ctx.joined <- ctx.joined + 1;
        if extras ctx t then t :: acc else acc
      in
      let equal (lc, rc) =
        let l = joined lc and r = joined rc in
        fun _ t -> eval_cmp Logical.C_eq (l t) (r t)
      in
      match jm with
      | Physical.Hash_join ->
          let l = node db left and r = node db right in
          let side slots c = tuple_reader (locate db rels slots c) in
          let lkey = read_all (List.map (fun (lc, _) -> side lslots lc) conds)
          and rkey = read_all (List.map (fun (_, rc) -> side rslots rc) conds)
          (* SQL join semantics: NULL compares equal to nothing, so a
             NULL-keyed tuple can never match.  The hash table compares
             keys structurally (V_null = V_null), so NULL-keyed tuples
             are skipped on both sides, as the other join methods
             reject them through eval_cmp. *)
          and null_key = List.exists Rtype.is_null in
          fun ctx ->
            let ltuples = l ctx in
            let rtuples = r ctx in
            let index = Hashtbl.create (List.length rtuples) in
            List.iter
              (fun rt ->
                let k = rkey rt in
                if not (null_key k) then Hashtbl.add index k rt)
              rtuples;
            List.fold_left
              (fun acc lt ->
                let k = lkey lt in
                if null_key k then acc
                else
                  List.fold_left
                    (fun acc rt -> emit ctx acc (Array.append lt rt))
                    acc (Hashtbl.find_all index k))
              [] ltuples
            |> List.rev
      | Physical.Index_nl { column } -> (
          match right with
          | Physical.Join _ ->
              fun _ ->
                invalid_arg "Executor: index-nl join needs a base right input"
          | Physical.Scan { rel; filters; _ } -> (
              let l = node db left in
              match
                List.find_opt
                  (fun ((_, _), (ra, rc)) ->
                    String.equal ra rel.alias && String.equal rc column)
                  conds
              with
              | None ->
                  fun ctx ->
                    ignore (l ctx);
                    invalid_arg "Executor: index-nl join without probe cond"
              | Some ((lcol, _) as probe_cond) ->
                  let lkey = tuple_reader (locate db rels lslots lcol) in
                  let probe =
                    staged (fun () ->
                        Storage.lookup db ~table:rel.table ~column)
                  in
                  let keep =
                    all (List.map (pred (on_row db rels rel)) filters)
                  in
                  let rest =
                    all
                      (List.map equal
                         (List.filter (fun c -> not (c == probe_cond)) conds))
                  in
                  fun ctx ->
                    List.fold_left
                      (fun acc lt ->
                        let v = lkey lt in
                        (* the probe condition is delegated to the index,
                           which finds V_null = V_null structurally: a
                           NULL probe key must not probe at all *)
                        if Rtype.is_null v then acc
                        else begin
                          ctx.probes <- ctx.probes + 1;
                          List.fold_left
                            (fun acc row ->
                              add_row_bytes ctx row;
                              if keep ctx row then
                                let t = snoc lt row in
                                if rest ctx t then emit ctx acc t else acc
                              else acc)
                            acc (probe v)
                        end)
                      [] (l ctx)
                    |> List.rev))
      | Physical.Nl_join ->
          let l = node db left and r = node db right in
          let on = all (List.map equal conds) in
          fun ctx ->
            let ltuples = l ctx in
            let rtuples = r ctx in
            List.fold_left
              (fun acc lt ->
                List.fold_left
                  (fun acc rt ->
                    let t = Array.append lt rt in
                    if on ctx t then emit ctx acc t else acc)
                  acc rtuples)
              [] ltuples
            |> List.rev)

type compiled = {
  eval : ctx -> tuple list;
  project : tuple -> Rtype.value list;
}

let compile db plan out =
  let project =
    match out with
    | [] -> fun t -> List.concat_map Array.to_list (Array.to_list t)
    | cols ->
        let rels = Physical.relations plan in
        let slots = aliases plan in
        read_all
          (List.map (fun c -> tuple_reader (locate db rels slots c)) cols)
  in
  { eval = node db plan; project }

let run ?(params = [||]) c =
  let ctx =
    { params; scanned = 0; probes = 0; joined = 0; read = { bytes = 0. } }
  in
  let rows = List.map c.project (c.eval ctx) in
  ( rows,
    {
      tuples_scanned = ctx.scanned;
      index_probes = ctx.probes;
      join_tuples = ctx.joined;
      bytes_read = ctx.read.bytes;
      output_rows = List.length rows;
    } )

let run_block ?params db plan out = run ?params (compile db plan out)

let run_query db blocks =
  (* reverse-accumulate: [rows @ r] per block is quadratic in the
     output size across the many outer-union blocks a published
     subtree generates *)
  let rev_rows, m =
    List.fold_left
      (fun (rows, m) (plan, out) ->
        let r, m' = run_block db plan out in
        ( List.rev_append r rows,
          {
            tuples_scanned = m.tuples_scanned + m'.tuples_scanned;
            index_probes = m.index_probes + m'.index_probes;
            join_tuples = m.join_tuples + m'.join_tuples;
            bytes_read = m.bytes_read +. m'.bytes_read;
            output_rows = m.output_rows + m'.output_rows;
          } ))
      ([], zero_measures) blocks
  in
  (List.rev rev_rows, m)
