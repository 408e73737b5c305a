// Officeflow: the paper's motivating scenario (Section 1) on the live
// runtime. An office-automation system is assembled from independently
// developed components — here an *editor* application and an *archiver*
// application — that share service objects: a folder index and the
// documents inside it. Each application attaches the objects it works
// with into its own working set and controls migration with
// move-blocks, without knowing anything about the other application.
//
// The example shows the paper's remedies working together:
//
//   - transient placement keeps the two applications from stealing the
//     folder from each other mid-block, and
//   - alliances (A-transitive attachment) keep each application's
//     migrations from dragging the other's working set around.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"objmig"
)

// Document is a shared document object.
type Document struct {
	Title    string
	Body     []string
	Revision int
}

// Folder is the shared index both applications use.
type Folder struct {
	Titles []string
}

type appendArg struct {
	Line string
}

func newDocumentType() *objmig.Type[Document] {
	t := objmig.NewType[Document]("document")
	objmig.HandleFunc(t, "SetTitle", func(c *objmig.Ctx, d *Document, title string) (struct{}, error) {
		d.Title = title
		return struct{}{}, nil
	})
	objmig.HandleFunc(t, "Append", func(c *objmig.Ctx, d *Document, a appendArg) (int, error) {
		d.Body = append(d.Body, a.Line)
		d.Revision++
		return d.Revision, nil
	})
	objmig.HandleFunc(t, "Render", func(c *objmig.Ctx, d *Document, _ struct{}) (string, error) {
		return fmt.Sprintf("%s (rev %d)\n%s", d.Title, d.Revision, strings.Join(d.Body, "\n")), nil
	})
	return t
}

func newFolderType() *objmig.Type[Folder] {
	t := objmig.NewType[Folder]("folder")
	objmig.HandleFunc(t, "Add", func(c *objmig.Ctx, f *Folder, title string) (int, error) {
		f.Titles = append(f.Titles, title)
		return len(f.Titles), nil
	})
	objmig.HandleFunc(t, "List", func(c *objmig.Ctx, f *Folder, _ struct{}) ([]string, error) {
		out := make([]string, len(f.Titles))
		copy(out, f.Titles)
		return out, nil
	})
	return t
}

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	cluster := objmig.NewLocalCluster()
	cluster.SetLatency(500 * time.Microsecond)

	mk := func(id objmig.NodeID) *objmig.Node {
		n, err := objmig.NewNode(objmig.Config{
			ID:      id,
			Cluster: cluster,
			Policy:  objmig.PolicyPlacement,
			Attach:  objmig.AttachATransitive,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, typ := range []interface{ Name() string }{newDocumentType(), newFolderType()} {
			if err := n.RegisterType(typ); err != nil {
				log.Fatal(err)
			}
		}
		return n
	}
	// One file server and one workstation per application.
	server, editor, archiver := mk("file-server"), mk("editor-ws"), mk("archiver-ws")
	defer func() { _ = server.Close(); _ = editor.Close(); _ = archiver.Close() }()

	// Shared state lives on the file server initially.
	folder, err := server.Create("folder")
	if err != nil {
		log.Fatal(err)
	}
	report, err := server.Create("document")
	if err != nil {
		log.Fatal(err)
	}
	memo, err := server.Create("document")
	if err != nil {
		log.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	_, err = objmig.Call[string, struct{}](ctx, server, report, "SetTitle", "Q2 report")
	must(err)
	_, err = objmig.Call[string, struct{}](ctx, server, memo, "SetTitle", "travel memo")
	must(err)

	// Each application declares its own cooperation context: the
	// editor works on the folder plus the report, the archiver on the
	// folder plus the memo. The folder is the overlap — exactly the
	// Section 2.4 situation that breaks unrestricted attachment.
	editorAl := editor.NewAlliance()
	archiverAl := archiver.NewAlliance()
	must(editor.Attach(ctx, folder, report, editorAl))
	must(archiver.Attach(ctx, folder, memo, archiverAl))

	// The editor pulls ITS working set over and edits. Thanks to
	// A-transitivity the memo stays on the file server even though it
	// is attached to the folder (in the archiver's alliance).
	err = editor.MoveIn(ctx, editorAl, folder, func(ctx context.Context, b *objmig.Block) error {
		fmt.Printf("editor block: granted=%v, moved %d objects\n", b.Granted, len(b.Moved))
		if _, err := objmig.Call[string, int](ctx, editor, folder, "Add", "Q2 report"); err != nil {
			return err
		}
		for _, line := range []string{"Revenue grew.", "Costs shrank.", "Morale high."} {
			if _, err := objmig.Call[appendArg, int](ctx, editor, report, "Append", appendArg{Line: line}); err != nil {
				return err
			}
		}

		// While the editor holds its placed working set, the archiver
		// works too — concurrently and obliviously. Its move on the
		// folder is denied (the editor placed it first), so its calls
		// are forwarded; its own memo working set is untouched.
		return archiver.MoveIn(ctx, archiverAl, folder, func(ctx context.Context, b2 *objmig.Block) error {
			fmt.Printf("archiver block: granted=%v (placement protects the editor's block)\n", b2.Granted)
			if _, err := objmig.Call[string, int](ctx, archiver, folder, "Add", "travel memo"); err != nil {
				return err
			}
			_, err := objmig.Call[appendArg, int](ctx, archiver, memo, "Append", appendArg{Line: "archived 2026-06-11"})
			return err
		})
	})
	must(err)

	// After the editor's end-request the archiver can win the folder.
	err = archiver.MoveIn(ctx, archiverAl, folder, func(ctx context.Context, b *objmig.Block) error {
		fmt.Printf("archiver block: granted=%v after the editor finished\n", b.Granted)
		where, err := archiver.Locate(ctx, memo)
		if err != nil {
			return err
		}
		fmt.Printf("memo now at %s (dragged with the archiver's working set)\n", where)
		return nil
	})
	must(err)

	titles, err := objmig.Call[struct{}, []string](ctx, server, folder, "List", struct{}{})
	must(err)
	fmt.Println("folder lists:", strings.Join(titles, ", "))
	rendered, err := objmig.Call[struct{}, string](ctx, archiver, report, "Render", struct{}{})
	must(err)
	fmt.Println("---\n" + rendered)
	// The file server's side of the story: what it served and what it
	// gave away. (Its hint and hop counters depend on whether its last
	// call beats the archiver's home advisory, so they are left out.)
	s := server.Stats()
	fmt.Printf("---\nfile-server: %d invocations served, %d moves granted, %d denied, %d migrations out carrying %d objects\n",
		s.InvocationsServed, s.MovesGranted, s.MovesDenied, s.MigrationsOut, s.ObjectsMovedOut)
}
