package core

import "llhsc/internal/baogen"

// Artifacts are the facts a passing run's hypervisor artifacts render
// from: the platform description (Listing 3) and the VM-list
// configuration (Listing 6), whose VMs are named and indexed like
// Report.VMs. The platform and the unnamed VM facts are shared with the
// check cache, so nothing may edit them. Each text method renders its
// artifact afresh; on the zero Artifacts of a failing run it returns
// the empty text.
type Artifacts struct {
	Platform *baogen.Platform
	Config   *baogen.Config
}

// QEMUArch is the architecture the QEMU invocation targets.
const QEMUArch = "aarch64"

// PlatformC is the platform description C file (Listing 3).
func (a *Artifacts) PlatformC() string {
	if a.Platform == nil {
		return ""
	}
	return a.Platform.RenderPlatformC()
}

// ConfigC is the VM-list configuration C file (Listing 6).
func (a *Artifacts) ConfigC() string {
	if a.Config == nil {
		return ""
	}
	return a.Config.RenderConfigC()
}

// QEMUArgs is the equivalent qemu-system invocation.
func (a *Artifacts) QEMUArgs() []string {
	if a.Platform == nil {
		return nil
	}
	return baogen.QEMUArgs(a.Platform, QEMUArch)
}

// JailhouseRootC is the Jailhouse root-cell configuration (the paper's
// "others like Jailhouse can also be supported").
func (a *Artifacts) JailhouseRootC() string {
	if a.Platform == nil {
		return ""
	}
	return baogen.RenderJailhouseRootC(a.Platform)
}

// JailhouseCellsC are the Jailhouse cell configurations, one per VM,
// indexed like Report.VMs.
func (a *Artifacts) JailhouseCellsC() []string {
	if a.Config == nil {
		return nil
	}
	cells := make([]string, len(a.Config.VMs))
	for i, vm := range a.Config.VMs {
		cells[i] = baogen.RenderJailhouseCellC(vm)
	}
	return cells
}
