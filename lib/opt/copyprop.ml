(** Local copy propagation.

    Within each block, uses of a register defined by a same-type copy are
    rewritten to the copy's source while the pair is untouched. Extensions
    ([Sext]/[Zext]/[JustExt]) keep their register by construction and are
    never renamed. *)

open Sxe_ir

let run (f : Cfg.func) =
  let changed = ref false in
  Cfg.iter_blocks
    (fun b ->
      let copies : (Instr.reg, Instr.reg) Hashtbl.t = Hashtbl.create 16 in
      let hit = ref false in
      let resolve r =
        match Hashtbl.find_opt copies r with
        | Some s ->
            hit := true;
            s
        | None -> r
      in
      let invalidate d =
        Hashtbl.remove copies d;
        Hashtbl.filter_map_inplace (fun _ s -> if s = d then None else Some s) copies
      in
      List.iter
        (fun (i : Instr.t) ->
          (* rewrite uses first *)
          hit := false;
          let op' = Instr.map_uses resolve i.op in
          if !hit then begin
            Cfg.set_op b i op';
            changed := true
          end;
          (* then account for the def *)
          (match Instr.def i.op with Some d -> invalidate d | None -> ());
          match i.op with
          | Instr.Mov { dst; src; _ } when dst <> src && Cfg.reg_ty f src = Cfg.reg_ty f dst ->
              (* a same-type copy preserves the full 64-bit register, so
                 reading the source instead is transparent to extension
                 facts *)
              Hashtbl.replace copies dst src
          | _ -> ())
        (Cfg.body b);
      hit := false;
      let t' = Instr.map_uses_term resolve (Cfg.term b) in
      if !hit then begin
        Cfg.set_term b t';
        changed := true
      end)
    f;
  !changed
