open Legodb_xml
open Legodb_xtype
open Legodb_relational

exception Shred_error of { path : string list; message : string }

(* [rpath] is the element path reversed (innermost step first): one
   cons per step on the way down, reversed only here *)
let fail rpath fmt =
  Format.kasprintf
    (fun message -> raise (Shred_error { path = List.rev rpath; message }))
    fmt

(* Everything below is resolved once per [shred_into] call and looked
   up per element: a table's row layout at its first row, a column's
   position and type at its first value, a (place, child tag) step's
   {!Navigate.navigate} answer at its first occurrence. *)

type layout = {
  ty : string;
  tbl : Rschema.table;
  arity : int;
  key : int;  (* position of the id column *)
  order : int;  (* position of the document-order column, -1 if none *)
  mutable last_id : int;  (* ids continue from the table's row count *)
  fks : (string, int) Hashtbl.t;  (* parent -> fk position, -1 if none *)
  cols : (string, (int * Rtype.t) option) Hashtbl.t;
}

type open_row = { lay : layout; id : int; row : Storage.row }

(* "At an element": a place and the resolutions of its child steps *)
type pnode = {
  place : Navigate.place;
  steps : (string, step list) Hashtbl.t;
  text_col : string;  (* where the element's own text goes *)
}

(* A {!Navigate.found}, resolved: [fresh_last] when the chain's last
   table is element-rooted (a fresh row per occurrence); [tag_col] is
   where a wildcard element's concrete tag goes. *)
and step =
  | S_column of { hops : string list; fresh_last : bool; column : string }
  | S_wild of {
      hops : string list;
      fresh_last : bool;
      tilde : string;
      data : string;
      tag : string;
    }
  | S_elem of {
      hops : string list;
      fresh_last : bool;
      tag_col : string option;
      next : pnode;
    }

type st = {
  db : Storage.t;
  m : Mapping.t;
  layouts : (string, layout) Hashtbl.t;
  places : (Navigate.place, pnode) Hashtbl.t;
  mutable tick : int;  (* global document order, when the mapping asks *)
}

let layout st ty =
  match Hashtbl.find st.layouts ty with
  | l -> l
  | exception Not_found ->
      let tbl = Rschema.table (Storage.catalog st.db) ty in
      let position column = Storage.column_position st.db ~table:ty ~column in
      let l =
        {
          ty;
          tbl;
          arity = List.length tbl.Rschema.columns;
          last_id = Storage.row_count st.db ty;
          key = position tbl.Rschema.key;
          order =
            (if st.m.Mapping.ordered then position Naming.order_col else -1);
          fks = Hashtbl.create 4;
          cols = Hashtbl.create 8;
        }
      in
      Hashtbl.add st.layouts ty l;
      l

let fk_position st lay parent =
  match Hashtbl.find lay.fks parent with
  | pos -> pos
  | exception Not_found ->
      let pos =
        match
          Storage.column_position st.db ~table:lay.ty
            ~column:(Naming.fk_col parent)
        with
        | pos -> pos
        | exception Not_found -> -1
      in
      Hashtbl.add lay.fks parent pos;
      pos

let new_row st ty ~parent =
  let lay = layout st ty in
  let row = Array.make lay.arity Rtype.V_null in
  lay.last_id <- lay.last_id + 1;
  let id = lay.last_id in
  row.(lay.key) <- Rtype.V_int id;
  if lay.order >= 0 then begin
    st.tick <- st.tick + 1;
    row.(lay.order) <- Rtype.V_int st.tick
  end;
  (match parent with
  | Some p ->
      let pos = fk_position st lay p.lay.ty in
      if pos >= 0 then row.(pos) <- Rtype.V_int p.id
  | None -> ());
  { lay; id; row }

let column_of st o column =
  match Hashtbl.find o.lay.cols column with
  | c -> c
  | exception Not_found ->
      let c =
        match Storage.column_position st.db ~table:o.lay.ty ~column with
        | pos -> Some (pos, (Rschema.column o.lay.tbl column).Rschema.ctype)
        | exception Not_found -> None
      in
      Hashtbl.add o.lay.cols column c;
      c

let set_col st rpath o column text =
  match column_of st o column with
  | None -> fail rpath "internal: no column %s.%s" o.lay.ty column
  | Some (pos, ctype) ->
      o.row.(pos) <-
        (match ctype with
        | Rtype.R_int -> (
            match Xml.int_of_text text with
            | Some n -> Rtype.V_int n
            | None -> fail rpath "value %S is not an integer" text)
        | Rtype.R_string _ ->
            (* a copy allocated beside its row: the document's own string
               sits among parse-tree nodes that die after loading, and a
               store of such strings freezes and answers measurably
               slower (EXPERIMENTS.md, "Loading") *)
            Rtype.V_string (String.sub text 0 (String.length text)))

let insert st o = Storage.insert st.db o.lay.ty o.row

(* Is the (non-transparent) type's body rooted in an element?  If so a
   fresh row is created per occurrence; otherwise the type's content is
   spliced into its parent element and one cached row is shared. *)
let element_rooted st ty =
  match Xschema.find_opt st.m.Mapping.schema ty with
  | Some (Xtype.Elem _) -> true
  | Some _ | None -> false

let wildcard_rooted st ty =
  match Xschema.find_opt st.m.Mapping.schema ty with
  | Some (Xtype.Elem { label = Label.Any | Label.Any_except _; _ }) -> true
  | Some _ | None -> false

let pnode st place =
  match Hashtbl.find st.places place with
  | pn -> pn
  | exception Not_found ->
      let { Navigate.ty; prefix } = place in
      let text_col = Mapping.column st.m ~ty (Scalar prefix) in
      let pn = { place; steps = Hashtbl.create 8; text_col } in
      Hashtbl.add st.places place pn;
      pn

let resolve_found st (found : Navigate.found) =
  let fresh_last hops =
    hops <> [] && element_rooted st (List.nth hops (List.length hops - 1))
  in
  match found with
  | Navigate.F_column { hops; column; _ } ->
      S_column { hops; fresh_last = fresh_last hops; column }
  | Navigate.F_wild { hops; tilde; data; tag; _ } ->
      S_wild { hops; fresh_last = fresh_last hops; tilde; data; tag }
  | Navigate.F_elem { hops; place = { ty; prefix } as place } ->
      (* a structured wildcard element stores its concrete tag in its
         tag column *)
      let tag_col =
        if hops = [] then
          match List.rev prefix with
          | "tilde" :: _ -> Some (Mapping.column st.m ~ty (Tag prefix))
          | _ -> None
        else if wildcard_rooted st ty then
          Some (Mapping.column st.m ~ty (Tag []))
        else None
      in
      S_elem
        { hops; fresh_last = fresh_last hops; tag_col; next = pnode st place }

(* {!Navigate.navigate} from the node's place, once per child tag *)
let resolve st pn tag =
  match Hashtbl.find pn.steps tag with
  | steps -> steps
  | exception Not_found ->
      let steps =
        List.map (resolve_found st) (Navigate.navigate st.m pn.place tag)
      in
      Hashtbl.add pn.steps tag steps;
      steps

(* one-level structural lookahead used to pick among candidates *)
let accepts st step (child : Xml.t) =
  match step with
  | S_column _ | S_wild _ ->
      List.for_all
        (function Xml.Text _ -> true | Xml.Element _ -> false)
        (Xml.children child)
  | S_elem { next; _ } ->
      let ok_step s = resolve st next s <> [] in
      List.for_all (fun (n, _) -> ok_step n) (Xml.attributes child)
      && List.for_all
           (function
             | Xml.Element (tag, _, _) -> ok_step tag
             | Xml.Text s -> String.trim s = "")
           (Xml.children child)

let pick_candidate st rpath steps child =
  match steps with
  | [] ->
      fail rpath "no storage location for element <%s>"
        (Option.value ~default:"?" (Xml.tag child))
  | [ s ] -> s
  | ss -> (
      match List.find_opt (fun s -> accepts st s child) ss with
      | Some s -> s
      | None -> List.hd ss)

let rec fill st rpath (o : open_row) pn node =
  (* rows of spliced chains created while filling this element, newest
     first, keyed by the chain prefix they end (reversed) *)
  let spliced = ref [] in
  let rec chain_row anchor rev_done hops ~fresh_last =
    match hops with
    | [] -> anchor
    | [ ty ] when fresh_last -> new_row st ty ~parent:(Some anchor)
    | ty :: rest ->
        let key = ty :: rev_done in
        let r =
          match List.assoc_opt key !spliced with
          | Some r -> r
          | None ->
              let r = new_row st ty ~parent:(Some anchor) in
              spliced := (key, r) :: !spliced;
              r
        in
        chain_row r key rest ~fresh_last
  in
  let scalar rpath' step text =
    match step with
    | S_column { hops; fresh_last; column } ->
        let target = chain_row o [] hops ~fresh_last in
        set_col st rpath' target column text;
        if fresh_last then insert st target
    | S_wild { hops; fresh_last; tilde; data; tag } ->
        let target = chain_row o [] hops ~fresh_last in
        set_col st rpath' target tilde tag;
        set_col st rpath' target data text;
        if fresh_last then insert st target
    | S_elem _ -> fail rpath' "expected scalar storage"
  in
  (* attributes *)
  List.iter
    (fun (n, v) ->
      match resolve st pn n with
      | [] -> fail rpath "no storage location for attribute @%s" n
      | step :: _ -> scalar (("@" ^ n) :: rpath) step v)
    (Xml.attributes node);
  (* children *)
  List.iter
    (fun child ->
      match child with
      | Xml.Text s ->
          (* scalar content of the current element *)
          if String.trim s <> "" then set_col st rpath o pn.text_col s
      | Xml.Element (tag, _, _) -> (
          let rpath' = tag :: rpath in
          match pick_candidate st rpath' (resolve st pn tag) child with
          | (S_column _ | S_wild _) as step ->
              scalar rpath' step (Xml.text_content child)
          | S_elem { hops; fresh_last; tag_col; next } ->
              let target = chain_row o [] hops ~fresh_last in
              Option.iter (fun c -> set_col st rpath' target c tag) tag_col;
              fill st rpath' target next child;
              if fresh_last then insert st target))
    (Xml.children node);
  List.iter (fun (_, r) -> insert st r) !spliced

let shred_into db m doc =
  let st =
    {
      db;
      m;
      layouts = Hashtbl.create 16;
      places = Hashtbl.create 16;
      tick = Storage.total_rows db;
    }
  in
  let root_tag = match Xml.tag doc with Some t -> t | None -> "" in
  let rpath = [ root_tag ] in
  match List.map (resolve_found st) (Navigate.enter_root m root_tag) with
  | [] -> fail rpath "document root <%s> does not match the schema" root_tag
  | steps -> (
      match pick_candidate st rpath steps doc with
      | S_elem { hops; tag_col; next; _ } -> (
          (* materialize the chain from nothing: first hop has no parent *)
          let rec build parent created hops =
            match hops with
            | [] -> (parent, List.rev created)
            | ty :: rest ->
                let r = new_row st ty ~parent in
                build (Some r) (r :: created) rest
          in
          match build None [] hops with
          | Some o, created ->
              Option.iter (fun c -> set_col st rpath o c root_tag) tag_col;
              fill st rpath o next doc;
              List.iter (insert st) created
          | None, _ -> fail rpath "empty storage chain for the root")
      | S_column _ | S_wild _ ->
          fail rpath "document root resolves to a scalar")

let shred m doc =
  let db = Storage.create m.Mapping.catalog in
  shred_into db m doc;
  db
